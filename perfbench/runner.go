package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"edn"
	"edn/internal/serve"
)

// outcome is one job as its caller saw it.
type outcome struct {
	idx  int
	spec edn.JobSpec
	// bytes are the job's result bytes: json.Marshal of the JobResult in
	// process, the result field of the terminal event over HTTP.
	bytes []byte
	res   *edn.JobResult
	// latency is the caller-side time: RunJob plus marshal, or the full
	// HTTP round trip.
	latency time.Duration
	// span is the job's span tree on a traced runner: the benchmark's
	// own run_job/marshal spans around RunJob's tree in process, the
	// serve result event's tree over HTTP.
	span *edn.Span
	err  error
}

// runner sends one job through a public entry point. A runner is
// traced or untraced for its whole life.
type runner interface {
	run(ctx context.Context, spec edn.JobSpec) outcome
	cache() *edn.GeometryCache
	close()
}

func newRunner(w *workload, traced bool) runner {
	if w.workers > 0 {
		srv := serve.New(serve.Options{Workers: w.workers, DisableSpans: !traced})
		ts := httptest.NewServer(srv.Handler())
		return &httpRunner{srv: srv, ts: ts, client: ts.Client()}
	}
	return &inProcess{c: edn.NewGeometryCache(0), traced: traced}
}

// inProcess runs jobs through edn.RunJob with one shared geometry
// cache, then marshals the result as a caller persisting it would.
type inProcess struct {
	c      *edn.GeometryCache
	traced bool
}

func (p *inProcess) run(ctx context.Context, spec edn.JobSpec) outcome {
	start := time.Now()
	var tr *edn.SpanCollector
	if p.traced {
		tr = edn.NewSpanCollector("job")
	}
	rs := tr.Start("run_job")
	res, err := edn.RunJob(ctx, spec, edn.RunOptions{Cache: p.c, Trace: tr})
	tr.End(rs)
	if err != nil {
		return outcome{latency: time.Since(start), err: err}
	}
	ms := tr.Start("marshal")
	b, err := json.Marshal(res)
	tr.End(ms)
	lat := time.Since(start)
	tr.SetAttr(ms, "bytes", strconv.Itoa(len(b)))
	return outcome{bytes: b, res: res, latency: lat, span: tr.Finish(), err: err}
}

func (p *inProcess) cache() *edn.GeometryCache { return p.c }
func (p *inProcess) close()                    {}

// httpRunner posts jobs to an in-process serve.Server behind an
// httptest loopback listener.
type httpRunner struct {
	srv    *serve.Server
	ts     *httptest.Server
	client *http.Client
}

// event is the part of a serve event line the caller reads.
type event struct {
	Event  string          `json:"event"`
	Result json.RawMessage `json:"result"`
	Spans  *edn.Span       `json:"spans"`
	Error  string          `json:"error"`
}

func (h *httpRunner) run(ctx context.Context, spec edn.JobSpec) outcome {
	start := time.Now()
	o, err := h.post(ctx, spec)
	o.latency = time.Since(start)
	if err != nil {
		return outcome{latency: o.latency, err: err}
	}
	var res edn.JobResult
	if err := json.Unmarshal(o.bytes, &res); err != nil {
		return outcome{latency: o.latency, err: fmt.Errorf("decode result: %w", err)}
	}
	o.res = &res
	return o
}

func (h *httpRunner) post(ctx context.Context, spec edn.JobSpec) (outcome, error) {
	body, err := json.Marshal(spec)
	if err != nil {
		return outcome{}, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, h.ts.URL+"/v1/jobs", bytes.NewReader(body))
	if err != nil {
		return outcome{}, err
	}
	resp, err := h.client.Do(req)
	if err != nil {
		return outcome{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(resp.Body) // best effort: the status already failed the job
		return outcome{}, fmt.Errorf("POST /v1/jobs: %s: %s", resp.Status, bytes.TrimSpace(msg))
	}
	var o outcome
	terminal := false
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 64<<20)
	for sc.Scan() {
		var ev event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			return outcome{}, fmt.Errorf("decode event: %w", err)
		}
		switch ev.Event {
		case "result":
			o.bytes, o.span, terminal = ev.Result, ev.Spans, true
		case "error":
			return outcome{}, fmt.Errorf("job failed: %s", ev.Error)
		}
	}
	if err := sc.Err(); err != nil {
		return outcome{}, fmt.Errorf("read events: %w", err)
	}
	if !terminal {
		return outcome{}, fmt.Errorf("event stream ended without a result")
	}
	return o, nil
}

func (h *httpRunner) cache() *edn.GeometryCache { return h.srv.Cache() }
func (h *httpRunner) close()                    { h.ts.Close() }

// drive runs the closed loop: each of clients callers sends job after
// job, taking the next spec index in turn, until n jobs have been taken
// (n >= 0) or, for n < 0, until the deadline has passed. done receives
// each job's index and outcome as the job returns, one call at a time;
// what it keeps is all the run holds of the job. drive returns the
// number of jobs once every caller has finished its last one.
func drive(ctx context.Context, r runner, clients int, spec func(i int) edn.JobSpec, n int, deadline time.Time,
	done func(i int, o outcome)) int {
	var next atomic.Int64
	var mu sync.Mutex
	jobs := 0
	var wg sync.WaitGroup
	for range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				if n < 0 && !time.Now().Before(deadline) {
					return
				}
				i := int(next.Add(1) - 1)
				if n >= 0 && i >= n {
					return
				}
				s := spec(i)
				o := r.run(ctx, s)
				o.idx, o.spec = i, s
				mu.Lock()
				done(i, o)
				jobs++
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return jobs
}
