package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"redundancy/internal/core"
	"redundancy/internal/gateway"
	"redundancy/internal/memkv"
	"redundancy/internal/slo"
)

// shardTimeout, replication and maxExtraLoad are cmd/gateway's defaults.
const (
	shardTimeout = 2 * time.Second
	replication  = 2
	maxExtraLoad = 0.5
	sloInterval  = time.Second
)

// httpConns is how many HTTP connections the generator opens to the
// gateway, at most one per CPU the process runs on.
const httpConns = 2

func maxConns() int { return min(httpConns, runtime.NumCPU()) }

// stack is one in-process deployment: memkv shards, a MuxClient per
// shard, the ShardedClient, SLO controller, governor and gateway, wired
// as cmd/gateway wires them, behind an h2c HTTP server.
type stack struct {
	servers []*memkv.Server
	disks   []*disk
	muxes   []*memkv.MuxClient
	sc      *memkv.ShardedClient
	ctr     *core.Counters
	gov     *core.Governor
	ctl     *slo.Controller

	hs        *http.Server
	ln        *countingListener
	serveDone chan struct{}
	clients   []*http.Client
	base      string

	// hotVersions is the preloaded version of every CAS key.
	hotVersions []uint64
}

// stackOpts varies the wiring. The zero value is cmd/gateway's.
type stackOpts struct {
	tracer *tracer // record handler and copy spans
	// fixed > 0 replaces the SLO controller and governor with a fixed
	// read fan-out of that many copies (the per-copy overhead probe).
	fixed int
	seed  int64
}

// countingListener counts the connections the gateway accepts.
type countingListener struct {
	net.Listener
	n atomic.Int64
}

func (l *countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err == nil {
		l.n.Add(1)
	}
	return c, err
}

// buildStack starts a stack, preloads every key of p and returns once a
// request has travelled the whole path on every HTTP connection.
func buildStack(p *plan, o stackOpts) (st *stack, err error) {
	w := p.w
	st = &stack{serveDone: make(chan struct{})}
	defer func() {
		if err != nil {
			st.close()
			st = nil
		}
	}()
	var backends []memkv.Backend
	for i := 0; i < w.shards; i++ {
		srv := memkv.NewServer(nil)
		if w.disk != nil {
			d := newDisk(w.disk, w.valueMax, o.seed*7919+int64(i))
			srv.Delay = d.delay
			st.disks = append(st.disks, d)
		}
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			return st, fmt.Errorf("start shard %d: %w", i, err)
		}
		st.servers = append(st.servers, srv)
		m := memkv.NewMuxClient(addr.String(), shardTimeout)
		st.muxes = append(st.muxes, m)
		if o.tracer != nil {
			backends = append(backends, &tracedMux{m: m, t: o.tracer, shard: uint8(i)})
		} else {
			backends = append(backends, m)
		}
	}

	st.ctr = core.NewCounters()
	gwCfg := gateway.Config{Counters: st.ctr}
	var readStrategy core.Strategy
	if o.fixed > 0 {
		readStrategy = core.Fixed{Copies: o.fixed}
	} else {
		st.gov = core.NewGovernor(core.DefaultGovernorThreshold, 0)
		st.ctl = slo.New(slo.Target{P99: w.target, MaxExtraLoad: maxExtraLoad}, slo.Config{
			Counters: st.ctr,
			Governor: st.gov,
			Interval: sloInterval,
		})
		readStrategy = core.LoadAwareWith(st.ctl, st.gov)
		gwCfg.Controller, gwCfg.Governor = st.ctl, st.gov
	}
	st.sc = memkv.NewShardedClient(memkv.ShardedConfig{
		Replication:  replication,
		ReadStrategy: readStrategy,
		Observer:     st.ctr,
	}, backends...)
	if st.ctl != nil {
		st.ctl.Start()
	}
	gwCfg.Client = st.sc

	if err := st.preload(p); err != nil {
		return st, err
	}

	var h http.Handler = gateway.New(gwCfg)
	if o.tracer != nil {
		h = o.tracer.wrapHandler(h)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return st, fmt.Errorf("listen: %w", err)
	}
	st.ln = &countingListener{Listener: ln}
	st.base = "http://" + ln.Addr().String()
	st.hs = &http.Server{
		Handler:   h,
		Protocols: new(http.Protocols),
		// A stream limit far above any in-flight count, so the client
		// never opens a second connection for want of streams.
		HTTP2:    &http.HTTP2Config{MaxConcurrentStreams: 1 << 16},
		ErrorLog: log.New(io.Discard, "", 0),
	}
	st.hs.Protocols.SetUnencryptedHTTP2(true)
	go func() {
		defer close(st.serveDone)
		_ = st.hs.Serve(st.ln) // returns ErrServerClosed on close
	}()

	for range maxConns() {
		pr := new(http.Protocols)
		pr.SetUnencryptedHTTP2(true)
		st.clients = append(st.clients, &http.Client{Transport: &http.Transport{
			Protocols:          pr,
			MaxConnsPerHost:    1,
			DisableCompression: true,
		}})
	}
	// The first request on each client dials its connection; a GET of a
	// preloaded key proves the whole path answers.
	for _, c := range st.clients {
		if err := readyCheck(c, st.base, p.keys[0]); err != nil {
			return st, err
		}
	}
	for _, d := range st.disks {
		d.on.Store(true)
	}
	return st, nil
}

func readyCheck(c *http.Client, base, key string) error {
	resp, err := c.Get(base + "/kv/" + key)
	if err != nil {
		return fmt.Errorf("first request: %w", err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return fmt.Errorf("first request: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("first request: status %d: %s", resp.StatusCode, body)
	}
	_, err = checkValue(body, key)
	return err
}

// preloadBatch is how many versioned puts go to a shard in one round.
const preloadBatch = 512

// preload writes every key's initial value to each of its placement
// shards with one client-minted version, in batches per shard.
func (st *stack) preload(p *plan) error {
	byAddr := make(map[string]*memkv.MuxClient, len(st.muxes))
	for _, m := range st.muxes {
		byAddr[m.Addr()] = m
	}
	batches := make(map[string][]memkv.VersionedPut, len(st.muxes))
	st.hotVersions = make([]uint64, p.w.hotKeys)
	for i, k := range p.keys {
		v := st.sc.NextVersion()
		if i < len(st.hotVersions) {
			st.hotVersions[i] = v
		}
		for _, a := range st.sc.Owners(k) {
			batches[a] = append(batches[a], memkv.VersionedPut{Key: k, Value: p.initial[i], Version: v})
		}
	}
	ctx := context.Background()
	errs := make(chan error, len(batches))
	var wg sync.WaitGroup
	for a, puts := range batches {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for len(puts) > 0 {
				n := min(preloadBatch, len(puts))
				for _, r := range byAddr[a].PutVBatch(ctx, puts[:n]) {
					if r.Err != nil || !r.Applied {
						errs <- fmt.Errorf("preload %s: applied=%v: %v", a, r.Applied, r.Err)
						return
					}
				}
				puts = puts[n:]
			}
		}()
	}
	wg.Wait()
	close(errs)
	return <-errs // nil when the channel is empty
}

// conns is how many connections the gateway has accepted.
func (st *stack) conns() int64 {
	if st.ln == nil {
		return 0
	}
	return st.ln.n.Load()
}

// close stops everything the stack started and waits for the HTTP server
// to exit.
func (st *stack) close() {
	for _, c := range st.clients {
		c.CloseIdleConnections()
	}
	if st.hs != nil {
		if err := st.hs.Close(); err != nil && !errors.Is(err, http.ErrServerClosed) {
			log.Printf("close gateway: %v", err)
		}
		<-st.serveDone
	}
	if st.ctl != nil {
		st.ctl.Stop()
	}
	if st.sc != nil {
		st.sc.Close() // closes every MuxClient
	} else {
		for _, m := range st.muxes {
			m.Close()
		}
	}
	for _, s := range st.servers {
		s.Close()
	}
}
