package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"sort"
	"strconv"
	"sync/atomic"
	"time"
)

// watchBuffer is the gateway-side event buffer of each watch: tens of
// seconds of its partition's writes at the base rate, so a consumer that
// is briefly descheduled is never shed as slow.
const watchBuffer = 4096

// watcher is one /watch SSE stream over a key partition.
type watcher struct {
	cancel   context.CancelFunc
	done     chan struct{}
	n        atomic.Int64
	stopping atomic.Bool
	// events is written by the reader goroutine only and read after done
	// is closed.
	events []watchEvent
	err    error
}

type watchEvent struct {
	key string
	ver uint64
	at  int64 // arrival, ns since the run's epoch
}

// openWatch subscribes to prefix and returns once the gateway has
// answered, so every later write is covered.
func openWatch(c *http.Client, base, prefix string, epoch time.Time, chk *checker) (*watcher, error) {
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/watch?buf="+strconv.Itoa(watchBuffer)+"&prefix="+url.QueryEscape(prefix), nil)
	if err != nil {
		cancel()
		return nil, err
	}
	resp, err := c.Do(req)
	if err != nil {
		cancel()
		return nil, fmt.Errorf("watch %q: %w", prefix, err)
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		cancel()
		return nil, fmt.Errorf("watch %q: status %d", prefix, resp.StatusCode)
	}
	w := &watcher{cancel: cancel, done: make(chan struct{})}
	go w.read(resp.Body, epoch, chk)
	return w, nil
}

func (w *watcher) read(body io.ReadCloser, epoch time.Time, chk *checker) {
	defer close(w.done)
	defer body.Close()
	sc := bufio.NewScanner(body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	var ev struct {
		Key     string `json:"key"`
		Value   []byte `json:"value"`
		Version uint64 `json:"version"`
	}
	for sc.Scan() {
		line, ok := bytes.CutPrefix(sc.Bytes(), []byte("data: "))
		if !ok {
			continue
		}
		at := int64(time.Since(epoch))
		if err := json.Unmarshal(line, &ev); err != nil {
			chk.violateOutside("watch: bad event %.100q: %v", line, err)
			continue
		}
		if _, err := checkValue(ev.Value, ev.Key); err != nil {
			chk.violateOutside("watch: %v", err)
			continue
		}
		w.events = append(w.events, watchEvent{key: ev.Key, ver: ev.Version, at: at})
		w.n.Add(1)
	}
	if !w.stopping.Load() {
		w.err = sc.Err()
		if w.err == nil {
			w.err = io.ErrUnexpectedEOF // the gateway ended the stream
		}
	}
}

// stop ends the stream and waits for its reader.
func (w *watcher) stop() {
	w.stopping.Store(true)
	w.cancel()
	<-w.done
}

// watchReport is the exactly-once check's result.
type watchReport struct {
	events, acked, dups, missing, superseded, unacked int64
	lags                                              []int64 // due time of the write to delivery, ns
}

// drainWatchers waits until the watchers have delivered at least want
// events and gone quiet, or until the limit, then stops them.
func drainWatchers(ws []*watcher, want int64, limit time.Duration) {
	deadline := time.Now().Add(limit)
	last, quietSince := int64(-1), time.Now()
	for time.Now().Before(deadline) {
		var n int64
		for _, w := range ws {
			n += w.n.Load()
		}
		if n != last {
			last, quietSince = n, time.Now()
		} else if n >= want && time.Since(quietSince) > 200*time.Millisecond {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	for _, w := range ws {
		w.stop()
	}
}

// checkWatch demands that every acknowledged write was delivered exactly
// once. PUT keys are never written twice while watched, so each PUT must
// arrive. CAS keys are: delivery is version-monotonic per key, so a CAS
// version may be skipped only when a newer version of its key arrived.
func checkWatch(ws []*watcher, acks []ack, keys []string, hotKeys int, chk *checker) watchReport {
	type kv struct {
		key string
		ver uint64
	}
	seen := make(map[kv]int64)
	newest := make(map[string]uint64)
	var rep watchReport
	for _, w := range ws {
		if w.err != nil {
			chk.violateOutside("watch stream: %v", w.err)
		}
		for _, e := range w.events {
			rep.events++
			k := kv{e.key, e.ver}
			if _, dup := seen[k]; dup {
				rep.dups++
				chk.violateOutside("watch: %q version %d delivered twice", e.key, e.ver)
				continue
			}
			seen[k] = e.at
			newest[e.key] = max(newest[e.key], e.ver)
		}
	}
	acked := make(map[kv]bool, len(acks))
	for _, a := range acks {
		key := keys[a.key]
		k := kv{key, a.ver}
		acked[k] = true
		rep.acked++
		at, ok := seen[k]
		switch {
		case ok:
			rep.lags = append(rep.lags, at-a.due)
		case int(a.key) < hotKeys && newest[key] > a.ver:
			rep.superseded++
		default:
			rep.missing++
			chk.violateOutside("watch: acknowledged write %q version %d never delivered", key, a.ver)
		}
	}
	for k := range seen {
		if !acked[k] {
			rep.unacked++ // a write whose reply was lost still happened
		}
	}
	sort.Slice(rep.lags, func(i, j int) bool { return rep.lags[i] < rep.lags[j] })
	return rep
}
