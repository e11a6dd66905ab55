package queuesim

// OccupancyMismatch returns the first FIFO whose occupancy bit
// disagrees with its contents, or -1 when every bit is set exactly for
// the non-empty FIFOs. An unbuffered engine has neither and reports -1.
func OccupancyMismatch(e *Engine) int {
	for i := range e.rings {
		set := e.occ[i>>6]&(1<<(i&63)) != 0
		if set != (e.rings[i].N != 0) {
			return i
		}
	}
	return -1
}
