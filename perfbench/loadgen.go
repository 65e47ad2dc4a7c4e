package main

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"net/url"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// requestTimeout is every request's deadline, counted from its due time;
// a request that misses it has failed.
const requestTimeout = 5 * time.Second

// outcome is one request's timeline, in ns since the run's epoch.
type outcome struct {
	due, sent, done int64
	failed          bool
}

// latency is measured from when the request was due, so a generator
// stall is charged to every request it delayed. A failed request counts
// as missing any limit: it is charged the full timeout.
func (o *outcome) latency() int64 {
	if o.failed {
		return max(o.done-o.due, int64(requestTimeout))
	}
	return o.done - o.due
}

// loadgen sends a plan's phases open-loop: each request leaves at its due
// time whether or not earlier ones have returned.
type loadgen struct {
	st    *stack
	p     *plan
	chk   *checker
	tr    *tracer // nil when untraced
	epoch time.Time

	inflight    atomic.Int64
	maxInflight atomic.Int64
}

func (l *loadgen) since(t time.Time) int64 { return int64(t.Sub(l.epoch)) }

// run sends every request of ph and returns when all have completed.
// Request IDs are idBase+1 onwards.
func (l *loadgen) run(ph *phase, idBase uint64) []outcome {
	// The dispatcher sleeps in nanosleep on its own thread: a runtime
	// timer fires only at millisecond granularity while the Ps are idle,
	// and that rounding would land in every latency, more or less of it
	// depending on how busy the process happens to be.
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	out := make([]outcome, len(ph.reqs))
	var wg sync.WaitGroup
	start := time.Now()
	for i := range ph.reqs {
		due := start.Add(ph.reqs[i].at)
		for d := time.Until(due); d > 0; d = time.Until(due) {
			ts := syscall.NsecToTimespec(int64(d))
			_ = syscall.Nanosleep(&ts, nil) // EINTR: the loop sleeps again
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			l.send(&ph.reqs[i], &out[i], idBase+uint64(i)+1, due)
		}()
	}
	wg.Wait()
	return out
}

func (l *loadgen) send(r *req, o *outcome, id uint64, due time.Time) {
	n := l.inflight.Add(1)
	defer l.inflight.Add(-1)
	for m := l.maxInflight.Load(); n > m && !l.maxInflight.CompareAndSwap(m, n); m = l.maxInflight.Load() {
	}
	o.due = l.since(due)
	ctx, cancel := context.WithDeadline(context.Background(), due.Add(requestTimeout))
	defer cancel()

	key := l.p.keys[r.key]
	var (
		hr     *http.Request
		err    error
		expect uint64
	)
	switch r.op {
	case opGet, opQGet:
		hr, err = http.NewRequestWithContext(ctx, http.MethodGet, l.st.base+"/kv/"+key, nil)
		if err == nil && r.op == opQGet {
			hr.Header.Set("X-Consistency", "quorum")
		}
	case opPut, opCAS:
		hr, err = http.NewRequestWithContext(ctx, http.MethodPut, l.st.base+"/kv/"+key, bytes.NewReader(r.val))
		if err == nil && r.op == opCAS {
			expect = l.chk.expect(r.key)
			hr.Header.Set("X-Expect-Version", strconv.FormatUint(expect, 10))
		}
	case opScan:
		hr, err = http.NewRequestWithContext(ctx, http.MethodGet,
			l.st.base+"/scan?limit="+strconv.Itoa(scanLimit)+"&after="+url.QueryEscape(key), nil)
	}
	if err != nil {
		l.chk.violate("build %s request: %v", r.op, err)
		o.failed = true
		return
	}
	if l.tr != nil {
		hr.Header.Set(reqIDHeader, strconv.FormatUint(id, 10))
	}
	o.sent = l.since(time.Now())
	resp, err := l.st.clients[id%uint64(len(l.st.clients))].Do(hr)
	if err != nil {
		o.done = l.since(time.Now())
		o.failed = true
		return
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	o.done = l.since(time.Now())
	if err != nil {
		o.failed = true
		return
	}
	o.failed = l.chk.response(r, expect, resp, body, o.due)
	if l.tr != nil {
		l.tr.record(span{id: id, kind: spanRequest, start: o.sent, end: o.done})
	}
}
