package main

import (
	"net/http"
	"testing"
)

func newTestChecker(t *testing.T) (*checker, *plan) {
	t.Helper()
	w, err := findWorkload("write-watch")
	if err != nil {
		t.Fatal(err)
	}
	p := makePlan(w, 1, 1, false)
	return newChecker(p, make([]uint64, w.hotKeys)), p
}

func TestCheckerFlagsTwoCASWinners(t *testing.T) {
	c, p := newTestChecker(t)
	r := &req{op: opCAS, key: 3, val: makeValue(p.keys[3], 1, 64)}
	ok := &http.Response{StatusCode: http.StatusOK}
	if c.response(r, 5, ok, []byte(`{"version":6}`), 0) {
		t.Fatal("first winner rejected")
	}
	if !c.response(r, 5, ok, []byte(`{"version":7}`), 0) || c.violations.Load() != 1 {
		t.Fatal("second winner for one expected version not flagged")
	}
	if c.response(r, 6, &http.Response{StatusCode: http.StatusConflict}, nil, 0) {
		t.Fatal("a CAS conflict is an expected outcome, not a failure")
	}
	if got := c.expect(3); got != 6 {
		t.Fatalf("next expected version %d, want the first winner's 6", got)
	}
}

func TestCheckerScanPages(t *testing.T) {
	c, _ := newTestChecker(t)
	entry := func(k string) string {
		return `{"key":"` + k + `","value":"` + b64(makeValue(k, 1, 64)) + `","version":1}`
	}
	good := `{"entries":[` + entry("p0/1") + `,` + entry("p1/2") + `],"more":true}`
	if err := c.checkScan("p0/0", []byte(good)); err != nil {
		t.Fatalf("good page rejected: %v", err)
	}
	for name, page := range map[string]string{
		"unsorted":     `{"entries":[` + entry("p1/2") + `,` + entry("p0/1") + `]}`,
		"duplicate":    `{"entries":[` + entry("p0/1") + `,` + entry("p0/1") + `]}`,
		"before after": `{"entries":[` + entry("p0/0") + `]}`,
		"wrong key":    `{"entries":[{"key":"p0/5","value":"` + b64(makeValue("p0/6", 1, 64)) + `","version":1}]}`,
	} {
		if err := c.checkScan("p0/0", []byte(page)); err == nil {
			t.Errorf("%s page accepted", name)
		}
	}
}

func TestCheckWatchExactlyOnce(t *testing.T) {
	c, p := newTestChecker(t)
	hot, cold := int32(1), int32(p.w.hotKeys+1)
	ws := []*watcher{{events: []watchEvent{
		{key: p.keys[cold], ver: 10, at: 5},
		{key: p.keys[hot], ver: 21, at: 6},
	}}}
	acks := []ack{{cold, 10, 1}, {hot, 20, 2}, {hot, 21, 3}}
	rep := checkWatch(ws, acks, p.keys, p.w.hotKeys, c)
	if rep.missing != 0 || rep.dups != 0 || rep.superseded != 1 || c.violations.Load() != 0 {
		t.Fatalf("clean history: %+v, %d violations", rep, c.violations.Load())
	}
	ws[0].events = append(ws[0].events, watchEvent{key: p.keys[cold], ver: 10, at: 7})
	acks = append(acks, ack{cold + 1, 11, 4})
	rep = checkWatch(ws, acks, p.keys, p.w.hotKeys, c)
	if rep.dups != 1 || rep.missing != 1 {
		t.Fatalf("duplicate and lost write not both found: %+v", rep)
	}
}
