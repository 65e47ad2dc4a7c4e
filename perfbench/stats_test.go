package main

import (
	"math"
	"testing"
	"time"
)

func TestPercentile(t *testing.T) {
	xs := make([]int64, 100)
	for i := range xs {
		xs[i] = int64(100 - i) // 100 … 1, unsorted
	}
	for _, c := range []struct {
		p    float64
		want int64
	}{{0.5, 50}, {0.9, 90}, {0.99, 99}, {1, 100}, {0.001, 1}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(1…100, %v) = %d, want %d", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 0.99); got != 0 {
		t.Errorf("percentile of nothing = %d", got)
	}
}

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestGoodputInterpolates(t *testing.T) {
	rates := []float64{100, 200, 300, 400}
	// p99 rises linearly with load and crosses the limit at 250.
	limit := 10.0
	var scores []float64
	for _, r := range rates {
		p99 := r / 25
		scores = append(scores, rungScore(p99, limit, 0, 0.001, 0, 5))
	}
	if got := goodput(rates, scores); !near(got, 250) {
		t.Errorf("goodput = %v, want 250", got)
	}
	// A failure share or a late generator fails a rung like a latency miss.
	if s := rungScore(1, 10, 0.002, 0.001, 0, 5); !near(s, 2) {
		t.Errorf("score with 0.2%% failures = %v, want 2", s)
	}
	if s := rungScore(1, 10, 0, 0.001, 10, 5); !near(s, 2) {
		t.Errorf("score with a late generator = %v, want 2", s)
	}
}

func TestGoodputEdges(t *testing.T) {
	rates := []float64{100, 200, 300}
	if got := goodput(rates, []float64{0.2, 0.5, 0.9}); got != 300 {
		t.Errorf("all rungs pass: goodput = %v, want the top rate", got)
	}
	if got := goodput(rates, []float64{2, 3}); !near(got, 50) {
		t.Errorf("first rung fails at score 2: goodput = %v, want 50", got)
	}
	// One noisy rung below passing ones is pooled away: the smoothed
	// scores are 0.5, 0.8, 0.8, 2.5, so the limit is crossed between 300
	// and 400 at 300 + 100·0.2/1.7.
	got := goodput([]float64{100, 200, 300, 400}, []float64{0.5, 1.1, 0.5, 2.5})
	if want := 300 + 100*0.2/1.7; !near(got, want) {
		t.Errorf("noisy rung: goodput = %v, want %v", got, want)
	}
	// Saturated rungs are capped before smoothing.
	if got := goodput([]float64{100, 200}, []float64{0.5, 40}); !near(got, 100+100*0.5/2.5) {
		t.Errorf("capped score: goodput = %v", got)
	}
}

func TestIsotonic(t *testing.T) {
	got := isotonic([]float64{1, 3, 2, 4, 0})
	want := []float64{1, 2.25, 2.25, 2.25, 2.25}
	for i := range want {
		if !near(got[i], want[i]) {
			t.Fatalf("isotonic = %v, want %v", got, want)
		}
	}
}

// TestLindley checks the FCFS disk against a hand-computed Lindley
// sequence: each request starts when it arrives or when the one before it
// completes, whichever is later.
func TestLindley(t *testing.T) {
	arrive := []int64{0, 1, 2, 10, 11}
	service := []int64{3, 3, 1, 2, 5}
	wantWait := []int64{0, 2, 4, 0, 1}
	wantDone := []int64{3, 6, 7, 12, 17}
	var q fcfs
	for i := range arrive {
		wait, done := q.admit(arrive[i], service[i])
		if wait != wantWait[i] || done != wantDone[i] {
			t.Errorf("request %d: wait %d done %d, want %d and %d", i, wait, done, wantWait[i], wantDone[i])
		}
	}
}

func TestDiskOffUntilSwitchedOn(t *testing.T) {
	d := newDisk(workloads[0].disk, 4096, 1)
	if got := d.delay(); got != 0 {
		t.Fatalf("disk off: delay %v", got)
	}
	d.on.Store(true)
	d.recordWaits(true)
	first := d.delay()
	if first < workloads[0].disk.hit {
		t.Fatalf("first request delayed %v, less than a cache hit", first)
	}
	second := d.delay() // arrives while the first is in service: it queues
	if second <= first-time.Millisecond {
		t.Fatalf("second request delayed %v, first %v: no queueing", second, first)
	}
	if waits := d.recordWaits(false); len(waits) != 2 || waits[0] != 0 || waits[1] <= 0 {
		t.Fatalf("waits %v", waits)
	}
}
