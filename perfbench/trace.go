package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"sync/atomic"
	"time"

	"redundancy/internal/memkv"
)

// Spans are recorded from outside the program, at the calls into each
// layer's public surface:
//
//   - request: the generator's HTTP round trip, from send to body read;
//   - handler: the gateway's ServeHTTP, through an http.Handler wrapper
//     that also puts the request ID into r.Context();
//   - copy: one call into a shard's MuxClient, through a wrapper that
//     forwards every MuxClient method. The engine's copy contexts embed
//     the caller's context, so each copy carries its request's ID.
type spanKind uint8

const (
	spanRequest spanKind = iota
	spanHandler
	spanCopy
)

// copyOp names the MuxClient method a copy span timed.
type copyOp uint8

const (
	copyGet copyOp = iota
	copyGetV
	copyPutV
	copyCAS
	copyScan
	copyOther
	numCopyOps
)

var copyOpNames = [numCopyOps]string{"get", "getv", "putv", "cas", "scan", "other"}

// spanOutcome is how a copy ended.
type spanOutcome uint8

const (
	outcomeOK        spanOutcome = iota
	outcomeCancelled             // the engine gave up on it (another copy won, or the caller left)
	outcomeError
)

type span struct {
	id         uint64
	start, end int64 // ns since the tracer's epoch
	kind       spanKind
	op         copyOp
	shard      uint8
	outcome    spanOutcome
}

// tracer keeps spans in a fixed array filled lock-free; spans past its
// capacity are counted and dropped.
type tracer struct {
	epoch time.Time
	spans []span
	n     atomic.Int64
}

func newTracer(epoch time.Time, capacity int) *tracer {
	return &tracer{epoch: epoch, spans: make([]span, capacity)}
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

func (t *tracer) record(s span) {
	if i := t.n.Add(1) - 1; i < int64(len(t.spans)) {
		t.spans[i] = s
	}
}

// recorded returns the spans kept and how many were dropped.
func (t *tracer) recorded() ([]span, int64) {
	n := t.n.Load()
	if n > int64(len(t.spans)) {
		return t.spans, n - int64(len(t.spans))
	}
	return t.spans[:n], 0
}

type reqIDKey struct{}

// reqIDHeader carries the generator's request ID to the handler wrapper.
const reqIDHeader = "X-Request-Id"

func requestID(ctx context.Context) uint64 {
	id, _ := ctx.Value(reqIDKey{}).(uint64)
	return id
}

// wrapHandler records a handler span for every request that carries an
// ID, and makes the ID visible to the copies it causes.
func (t *tracer) wrapHandler(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id, _ := strconv.ParseUint(r.Header.Get(reqIDHeader), 10, 64)
		if id == 0 {
			h.ServeHTTP(w, r)
			return
		}
		start := t.now()
		h.ServeHTTP(w, r.WithContext(context.WithValue(r.Context(), reqIDKey{}, id)))
		t.record(span{id: id, kind: spanHandler, start: start, end: t.now()})
	})
}

// shardBackend is the one shard interface every capability probe of
// ShardedClient resolves to: MuxClient satisfies it, and so must the
// timing wrapper.
type shardBackend interface {
	memkv.VersionedBackend
	memkv.CASBackend
	memkv.WatchableBackend
}

var (
	_ shardBackend = (*memkv.MuxClient)(nil)
	_ shardBackend = (*tracedMux)(nil)
)

// tracedMux times every call into one shard's MuxClient. It forwards
// every exported MuxClient method, so it satisfies whichever capability
// interface ShardedClient probes for.
type tracedMux struct {
	m     *memkv.MuxClient
	t     *tracer
	shard uint8
}

func (c *tracedMux) done(ctx context.Context, op copyOp, start int64, err error) {
	id := requestID(ctx)
	if id == 0 {
		return
	}
	out := outcomeOK
	switch {
	case err == nil:
	case ctx.Err() != nil || errors.Is(err, context.Canceled):
		out = outcomeCancelled
	default:
		out = outcomeError
	}
	c.t.record(span{id: id, kind: spanCopy, op: op, shard: c.shard, outcome: out, start: start, end: c.t.now()})
}

func (c *tracedMux) Addr() string  { return c.m.Addr() }
func (c *tracedMux) NumConns() int { return c.m.NumConns() }
func (c *tracedMux) Close() error  { return c.m.Close() }

func (c *tracedMux) Get(ctx context.Context, key string) ([]byte, error) {
	s := c.t.now()
	v, err := c.m.Get(ctx, key)
	c.done(ctx, copyGet, s, err)
	return v, err
}

func (c *tracedMux) Set(ctx context.Context, key string, value []byte) error {
	s := c.t.now()
	err := c.m.Set(ctx, key, value)
	c.done(ctx, copyOther, s, err)
	return err
}

func (c *tracedMux) SetTTL(ctx context.Context, key string, value []byte, ttl time.Duration) error {
	s := c.t.now()
	err := c.m.SetTTL(ctx, key, value, ttl)
	c.done(ctx, copyOther, s, err)
	return err
}

func (c *tracedMux) Delete(ctx context.Context, key string) error {
	s := c.t.now()
	err := c.m.Delete(ctx, key)
	c.done(ctx, copyOther, s, err)
	return err
}

func (c *tracedMux) GetBatch(ctx context.Context, keys []string) ([][]byte, []error) {
	s := c.t.now()
	vals, errs := c.m.GetBatch(ctx, keys)
	c.done(ctx, copyOther, s, nil)
	return vals, errs
}

func (c *tracedMux) PutBatch(ctx context.Context, keys []string, vals [][]byte) []error {
	s := c.t.now()
	errs := c.m.PutBatch(ctx, keys, vals)
	c.done(ctx, copyOther, s, nil)
	return errs
}

func (c *tracedMux) GetV(ctx context.Context, key string) ([]byte, uint64, uint32, error) {
	s := c.t.now()
	v, ver, ttl, err := c.m.GetV(ctx, key)
	c.done(ctx, copyGetV, s, err)
	return v, ver, ttl, err
}

func (c *tracedMux) PutV(ctx context.Context, key string, value []byte, ttl time.Duration, version uint64) (uint64, bool, error) {
	s := c.t.now()
	cur, applied, err := c.m.PutV(ctx, key, value, ttl, version)
	c.done(ctx, copyPutV, s, err)
	return cur, applied, err
}

func (c *tracedMux) Scan(ctx context.Context, after string, limit int) ([]memkv.ScanEntry, bool, error) {
	s := c.t.now()
	entries, more, err := c.m.Scan(ctx, after, limit)
	c.done(ctx, copyScan, s, err)
	return entries, more, err
}

func (c *tracedMux) PutVBatch(ctx context.Context, puts []memkv.VersionedPut) []memkv.PutVResult {
	s := c.t.now()
	res := c.m.PutVBatch(ctx, puts)
	c.done(ctx, copyOther, s, nil)
	return res
}

// Watch is forwarded untimed: a stream has no single duration.
func (c *tracedMux) Watch(ctx context.Context, prefix string, buf int) (*memkv.WatchStream, error) {
	return c.m.Watch(ctx, prefix, buf)
}

func (c *tracedMux) CAS(ctx context.Context, key string, value []byte, ttl time.Duration, expect uint64) (uint64, bool, error) {
	s := c.t.now()
	cur, applied, err := c.m.CAS(ctx, key, value, ttl, expect)
	c.done(ctx, copyCAS, s, err)
	return cur, applied, err
}

// writeSpans writes every kept span as one tab-separated line:
// id, kind, op, shard, outcome, start ns, end ns.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	bw := bufio.NewWriter(f)
	fmt.Fprintln(bw, "id\tkind\top\tshard\toutcome\tstart_ns\tend_ns")
	kinds := [...]string{"request", "handler", "copy"}
	outs := [...]string{"ok", "cancelled", "error"}
	for _, s := range spans {
		fmt.Fprintf(bw, "%d\t%s\t%s\t%d\t%s\t%d\t%d\n", s.id, kinds[s.kind], copyOpNames[s.op], s.shard, outs[s.outcome], s.start, s.end)
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	return f.Close()
}
