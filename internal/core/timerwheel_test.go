package core

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func waitFor(t *testing.T, d time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("condition not met within %v", d)
}

func TestWheelFiresWithArgs(t *testing.T) {
	w := NewTimerWheel(time.Millisecond)
	defer w.Close()
	type fire struct {
		c any
		i int64
	}
	ch := make(chan fire, 1)
	arg := new(int)
	start := time.Now()
	w.AfterFunc(5*time.Millisecond, func(c any, i int64) { ch <- fire{c, i} }, arg, 42)
	select {
	case f := <-ch:
		if f.c != any(arg) || f.i != 42 {
			t.Fatalf("callback args = (%v, %d), want (%p, 42)", f.c, f.i, arg)
		}
		if el := time.Since(start); el < 4*time.Millisecond {
			t.Fatalf("fired early: %v < 5ms (minus slack)", el)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("timer never fired")
	}
	waitFor(t, time.Second, func() bool { return w.Armed() == 0 })
}

func TestWheelStop(t *testing.T) {
	w := NewTimerWheel(time.Millisecond)
	defer w.Close()
	var fired atomic.Bool
	tm := w.AfterFunc(50*time.Millisecond, func(any, int64) { fired.Store(true) }, nil, 0)
	if !tm.Stop() {
		t.Fatal("Stop on armed timer = false, want true")
	}
	if tm.Stop() {
		t.Fatal("second Stop = true, want false")
	}
	if w.Armed() != 0 {
		t.Fatalf("Armed = %d after stop, want 0", w.Armed())
	}
	time.Sleep(80 * time.Millisecond)
	if fired.Load() {
		t.Fatal("stopped timer fired")
	}
}

// TestWheelStopAfterLevelBoundaryShrink is a regression test: Stop on
// a timer whose remaining delta has shrunk below its insertion level's
// span (armed at level 1, now under 64 ticks away, but not yet
// cascaded down) must unlink from the slot list that actually holds
// it. unlink used to re-derive the level from the current delta and
// edit the wrong list, cross-linking the wheel's slots with the free
// list and livelocking the wheel goroutine.
func TestWheelStopAfterLevelBoundaryShrink(t *testing.T) {
	w := NewTimerWheel(time.Millisecond)
	defer w.Close()
	// Keep the loop ticking so w.now advances while the victim is armed,
	// and double as the health probe afterwards.
	var keep atomic.Bool
	w.AfterFunc(300*time.Millisecond, func(any, int64) { keep.Store(true) }, nil, 0)

	// 100 ticks lands in level 1. After ~45 ticks the remaining delta is
	// below level 0's span (64) while the node still sits in level 1.
	var fired atomic.Bool
	tm := w.AfterFunc(100*time.Millisecond, func(any, int64) { fired.Store(true) }, nil, 0)
	time.Sleep(45 * time.Millisecond)
	if !tm.Stop() {
		t.Fatal("Stop on armed level-1 timer = false, want true")
	}

	// The wheel must stay healthy: the keeper and a freshly armed timer
	// (reusing the recycled node) both fire, the stopped one never does.
	var again atomic.Bool
	w.AfterFunc(5*time.Millisecond, func(any, int64) { again.Store(true) }, nil, 0)
	waitFor(t, 2*time.Second, again.Load)
	waitFor(t, 2*time.Second, keep.Load)
	if fired.Load() {
		t.Fatal("stopped timer fired")
	}
	waitFor(t, 2*time.Second, func() bool { return w.Armed() == 0 })
}

func TestWheelStopAfterFire(t *testing.T) {
	w := NewTimerWheel(time.Millisecond)
	defer w.Close()
	ch := make(chan struct{})
	tm := w.AfterFunc(time.Millisecond, func(any, int64) { close(ch) }, nil, 0)
	<-ch
	if tm.Stop() {
		t.Fatal("Stop after fire = true, want false")
	}
}

func TestWheelZeroHandle(t *testing.T) {
	var tm WheelTimer
	if tm.Stop() {
		t.Fatal("zero handle Stop = true")
	}
}

// TestWheelStaleHandleAfterReuse arms, fires, and re-arms enough timers
// that nodes recycle; a stale handle kept from the first round must not
// be able to stop a later timer that reuses its node.
func TestWheelStaleHandleAfterReuse(t *testing.T) {
	w := NewTimerWheel(time.Millisecond)
	defer w.Close()
	ch := make(chan struct{}, 1)
	old := w.AfterFunc(time.Millisecond, func(any, int64) { ch <- struct{}{} }, nil, 0)
	<-ch
	var fired atomic.Int64
	// The freed node is at the head of the free list: the next AfterFunc
	// reuses it.
	w.AfterFunc(20*time.Millisecond, func(any, int64) { fired.Add(1) }, nil, 0)
	if old.Stop() {
		t.Fatal("stale handle stopped a reused node's timer")
	}
	waitFor(t, 2*time.Second, func() bool { return fired.Load() == 1 })
}

// TestWheelManyTimers floods the wheel across all three levels and
// checks every timer fires exactly once and the wheel fully drains.
func TestWheelManyTimers(t *testing.T) {
	w := NewTimerWheel(time.Millisecond)
	defer w.Close()
	const n = 500
	var fired [n]atomic.Int64
	var wg sync.WaitGroup
	wg.Add(n)
	for i := 0; i < n; i++ {
		// Delays spanning level 0 (<64ms), level 1 (<4096ms, capped at
		// ~200ms to keep the test fast), seeded deterministically.
		d := time.Duration(1+(i*7)%200) * time.Millisecond
		w.AfterFunc(d, func(c any, idx int64) {
			fired[idx].Add(1)
			wg.Done()
		}, nil, int64(i))
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("timers did not all fire")
	}
	for i := range fired {
		if got := fired[i].Load(); got != 1 {
			t.Fatalf("timer %d fired %d times", i, got)
		}
	}
	if w.Armed() != 0 {
		t.Fatalf("Armed = %d after all fired, want 0", w.Armed())
	}
}

// TestWheelCascadeLevels exercises level-1 and level-2 insertion and
// cascade with a fine tick so the test stays fast.
func TestWheelCascadeLevels(t *testing.T) {
	w := NewTimerWheel(100 * time.Microsecond)
	defer w.Close()
	// 100µs tick: level 0 spans 6.4ms, level 1 409.6ms, level 2 beyond.
	cases := []time.Duration{
		3 * time.Millisecond,   // level 0
		50 * time.Millisecond,  // level 1
		450 * time.Millisecond, // level 2
	}
	type res struct {
		idx     int64
		elapsed time.Duration
	}
	ch := make(chan res, len(cases))
	start := time.Now()
	for i, d := range cases {
		w.AfterFunc(d, func(_ any, idx int64) {
			ch <- res{idx, time.Since(start)}
		}, nil, int64(i))
	}
	seen := make(map[int64]time.Duration)
	for range cases {
		select {
		case r := <-ch:
			seen[r.idx] = r.elapsed
		case <-time.After(5 * time.Second):
			t.Fatalf("missing fires; got %v", seen)
		}
	}
	for i, d := range cases {
		el := seen[int64(i)]
		if el < d-time.Millisecond {
			t.Errorf("timer %d (d=%v) fired early at %v", i, d, el)
		}
		if el > d+250*time.Millisecond {
			t.Errorf("timer %d (d=%v) fired very late at %v", i, d, el)
		}
	}
}

func TestWheelStopUnderFire(t *testing.T) {
	// Stop racing the fire path must never panic or double-count; run a
	// storm of arm/stop against short timers.
	w := NewTimerWheel(time.Millisecond)
	defer w.Close()
	var fired, stopped atomic.Int64
	const n = 400
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			for i := 0; i < n; i++ {
				tm := w.AfterFunc(time.Duration(1+(seed+i)%3)*time.Millisecond,
					func(any, int64) { fired.Add(1) }, nil, 0)
				if i%2 == 0 {
					time.Sleep(time.Duration(i%4) * 500 * time.Microsecond)
				}
				if tm.Stop() {
					stopped.Add(1)
				}
			}
		}(g * 13)
	}
	wg.Wait()
	waitFor(t, 5*time.Second, func() bool { return w.Armed() == 0 })
	if got := fired.Load() + stopped.Load(); got != 4*n {
		t.Fatalf("fired(%d) + stopped(%d) = %d, want %d", fired.Load(), stopped.Load(), got, 4*n)
	}
}

func TestWheelClose(t *testing.T) {
	w := NewTimerWheel(time.Millisecond)
	var fired atomic.Bool
	w.AfterFunc(30*time.Millisecond, func(any, int64) { fired.Store(true) }, nil, 0)
	w.Close()
	tm := w.AfterFunc(time.Millisecond, func(any, int64) { fired.Store(true) }, nil, 0)
	if tm.Stop() {
		t.Fatal("AfterFunc on closed wheel returned a live handle")
	}
	time.Sleep(60 * time.Millisecond)
	if fired.Load() {
		t.Fatal("timer fired after Close")
	}
}

func TestSharedWheelSingleton(t *testing.T) {
	if SharedWheel() != SharedWheel() {
		t.Fatal("SharedWheel returned distinct wheels")
	}
}

func TestWheelArmAfterIdleFiresOnTime(t *testing.T) {
	// Regression: the loop parks while nothing is armed, freezing the
	// wheel's tick count as wall time advances. A timer armed after an
	// idle stretch must still wait its full delay — without the resync
	// in AfterFunc, the loop's catch-up to the present fired it
	// instantly.
	w := NewTimerWheel(time.Millisecond)
	defer w.Close()
	var warm atomic.Bool
	w.AfterFunc(time.Millisecond, func(any, int64) { warm.Store(true) }, nil, 0)
	waitFor(t, time.Second, warm.Load)
	time.Sleep(100 * time.Millisecond) // idle: armed == 0, now frozen

	var fired atomic.Bool
	start := time.Now()
	w.AfterFunc(80*time.Millisecond, func(any, int64) { fired.Store(true) }, nil, 0)
	time.Sleep(30 * time.Millisecond)
	if fired.Load() {
		t.Fatalf("timer armed after idle fired within %v, want >= 80ms", time.Since(start))
	}
	waitFor(t, time.Second, fired.Load)
	if el := time.Since(start); el < 80*time.Millisecond {
		t.Fatalf("timer fired after %v, want >= 80ms", el)
	}
}

func TestWheelArmWhileLoopLagsFiresOnTime(t *testing.T) {
	// Regression: with timers armed, the wheel's tick count trails the
	// wall clock whenever the loop goroutine runs late. A timer armed in
	// that window must still wait its full delay. A callback that holds
	// the loop (deliberately breaking the must-not-block rule) stands in
	// for a descheduled loop: the timer armed meanwhile used to be
	// counted from the stale tick and fired on the loop's catch-up,
	// tens of milliseconds before its deadline.
	w := NewTimerWheel(time.Millisecond)
	defer w.Close()
	// Keep the wheel armed throughout, as a server with parked requests
	// is; an idle wheel resyncs its tick count on arming.
	w.AfterFunc(time.Minute, func(any, int64) {}, nil, 0)
	holding := make(chan struct{})
	w.AfterFunc(0, func(any, int64) {
		close(holding)
		time.Sleep(100 * time.Millisecond)
	}, nil, 0)
	<-holding
	time.Sleep(50 * time.Millisecond)

	fired := make(chan time.Time, 1)
	start := time.Now()
	w.AfterFunc(80*time.Millisecond, func(c any, _ int64) { c.(chan time.Time) <- time.Now() }, fired, 0)
	select {
	case at := <-fired:
		if el := at.Sub(start); el < 80*time.Millisecond {
			t.Fatalf("timer armed while the loop lagged fired after %v, want >= 80ms", el)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("timer never fired")
	}
}
