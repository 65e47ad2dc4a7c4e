package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
)

// checker verifies every response against what the generator wrote, and
// keeps what the CAS and watch checks need. A violation means the program
// returned something it must not; it also counts as a failed request.
type checker struct {
	p *plan

	violations atomic.Int64
	outside    atomic.Int64 // violations not tied to one request's reply
	shown      atomic.Int64

	// hotVer is the newest version of each CAS key this client knows of:
	// the expected version its next CAS sends.
	hotVer []atomic.Uint64

	mu sync.Mutex
	// casWins maps (key, expected version) to the version that won.
	casWins map[casKey]uint64
	// watching turns on recording of acknowledged writes for the watch
	// check; acks holds them.
	watching bool
	acks     []ack
}

type casKey struct {
	key    int32
	expect uint64
}

// ack is an acknowledged write: key, version, and the time it was due.
type ack struct {
	key int32
	ver uint64
	due int64
}

func newChecker(p *plan, hotVersions []uint64) *checker {
	c := &checker{p: p, hotVer: make([]atomic.Uint64, len(hotVersions)), casWins: make(map[casKey]uint64)}
	for i, v := range hotVersions {
		c.hotVer[i].Store(v)
	}
	return c
}

// maxViolationsShown bounds the violations described on standard error.
const maxViolationsShown = 10

func (c *checker) violate(format string, args ...any) {
	c.violations.Add(1)
	if c.shown.Add(1) <= maxViolationsShown {
		fmt.Fprintf(os.Stderr, "violation: "+format+"\n", args...)
	}
}

// violateOutside records a violation that no request's failure accounts
// for.
func (c *checker) violateOutside(format string, args ...any) {
	c.outside.Add(1)
	c.violate(format, args...)
}

func (c *checker) setWatching(on bool) {
	c.mu.Lock()
	c.watching = on
	c.mu.Unlock()
}

func (c *checker) acked(key int32, ver uint64, due int64) {
	c.mu.Lock()
	if c.watching {
		c.acks = append(c.acks, ack{key: key, ver: ver, due: due})
	}
	c.mu.Unlock()
}

// expect is the version the next CAS on hot key k should expect.
func (c *checker) expect(k int32) uint64 { return c.hotVer[k].Load() }

// response checks one completed exchange and reports whether it failed.
// Statuses 5xx are failures of the program under load; anything else
// unexpected, and any wrong content, is a violation.
func (c *checker) response(r *req, expect uint64, resp *http.Response, body []byte, due int64) (failed bool) {
	key := c.p.keys[r.key]
	if resp.StatusCode >= 500 {
		return true
	}
	switch {
	case resp.StatusCode == http.StatusOK:
	case r.op == opCAS && resp.StatusCode == http.StatusConflict:
		return false // lost the race: an expected outcome
	default:
		c.violate("%s %q: status %d: %.200s", r.op, key, resp.StatusCode, body)
		return true
	}
	switch r.op {
	case opGet, opQGet:
		if _, err := checkValue(body, key); err != nil {
			c.violate("%s: %v", r.op, err)
			return true
		}
		if r.op == opQGet {
			if v, err := strconv.ParseUint(resp.Header.Get("X-Version"), 10, 64); err != nil || v == 0 {
				c.violate("qget %q: bad X-Version %q", key, resp.Header.Get("X-Version"))
				return true
			}
		}
	case opPut:
		v, err := parseVersion(body)
		if err != nil {
			c.violate("put %q: %v", key, err)
			return true
		}
		c.acked(r.key, v, due)
	case opCAS:
		v, err := parseVersion(body)
		if err != nil {
			c.violate("cas %q: %v", key, err)
			return true
		}
		if v <= expect {
			c.violate("cas %q: new version %d not above expected %d", key, v, expect)
			return true
		}
		c.mu.Lock()
		prev, dup := c.casWins[casKey{r.key, expect}]
		if !dup {
			c.casWins[casKey{r.key, expect}] = v
		}
		c.mu.Unlock()
		if dup {
			c.violate("cas %q: two winners for expected version %d (%d and %d)", key, expect, prev, v)
			return true
		}
		for cur := c.hotVer[r.key].Load(); cur < v && !c.hotVer[r.key].CompareAndSwap(cur, v); cur = c.hotVer[r.key].Load() {
		}
		c.acked(r.key, v, due)
	case opScan:
		if err := c.checkScan(key, body); err != nil {
			c.violate("scan after %q: %v", key, err)
			return true
		}
	}
	return false
}

// parseVersion reads the gateway's {"version":N} write reply.
func parseVersion(body []byte) (uint64, error) {
	const pre = `{"version":`
	b := bytes.TrimSpace(body)
	if !bytes.HasPrefix(b, []byte(pre)) || !bytes.HasSuffix(b, []byte("}")) {
		return 0, fmt.Errorf("unexpected write reply %.100q", body)
	}
	v, err := strconv.ParseUint(string(b[len(pre):len(b)-1]), 10, 64)
	if err != nil || v == 0 {
		return 0, fmt.Errorf("unexpected write reply %.100q", body)
	}
	return v, nil
}

type scanPage struct {
	Entries []struct {
		Key     string `json:"key"`
		Value   []byte `json:"value"`
		Version uint64 `json:"version"`
	} `json:"entries"`
	More bool `json:"more"`
}

// checkScan checks a page: at most the limit, keys strictly ascending
// (sorted, no duplicates) and after the cursor, every value intact and
// written under its entry's key.
func (c *checker) checkScan(after string, body []byte) error {
	var pg scanPage
	if err := json.Unmarshal(body, &pg); err != nil {
		return err
	}
	if len(pg.Entries) > scanLimit {
		return fmt.Errorf("%d entries, limit %d", len(pg.Entries), scanLimit)
	}
	prev := after
	for _, e := range pg.Entries {
		if e.Key <= prev {
			return fmt.Errorf("key %q follows %q: not sorted, or duplicated", e.Key, prev)
		}
		prev = e.Key
		if e.Version == 0 {
			return fmt.Errorf("entry %q has version 0", e.Key)
		}
		if _, err := checkValue(e.Value, e.Key); err != nil {
			return err
		}
	}
	return nil
}
