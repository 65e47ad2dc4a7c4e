package memkv

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"redundancy/internal/core"
	"redundancy/internal/ring"
)

// ShardedClient partitions the keyspace across many single-shard memkv
// servers on a consistent-hash ring — the live-stack counterpart of the
// paper's §2.2 disk-backed storage service, where "files are partitioned
// across servers via consistent hashing, and two copies are stored of
// every file". Each key is placed on Replication distinct shards
// (primary + successors):
//
//   - Get issues the read redundantly within the key's placement under
//     the configured ReadStrategy (default: race primary + secondary,
//     first response wins — the paper's scheme) and takes per-call
//     options (ReadQuorum, core.WithFanoutCap, core.WithLabel, ...).
//   - Every write carries a client-minted version (PutVersioned, CAS;
//     see sharded_versioned.go). It returns once WriteQuorum placement
//     copies acked; the remaining copies keep running in the background,
//     and each copy that fails is reported to the repair sink. With
//     WriteQuorum < Replication a put survives Replication-WriteQuorum
//     shards being down.
//
// Replicas converge by last-writer-wins on those versions. With a
// repair sink installed (repair.Manager), missed copies are replayed as
// hints, stale copies seen by quorum reads are read-repaired, and
// AddShard/RemoveShard migrate remapped keys in the background. Without
// one, a missed copy stays missing until the key is written again.
//
// A ShardedClient whose Replication equals its shard count stores every
// key on every shard: the fully replicated read group of the paper's
// memcached experiment.
type ShardedClient struct {
	mu          sync.Mutex // guards clients; the rings have their own engines
	clients     map[string]Backend
	reads       *ring.Ring[string, []byte]
	replication int
	writeQuorum int

	// Versioned (convergence) surface — see sharded_versioned.go. readsV
	// mirrors reads' topology but returns value+version and treats a
	// missing key as a successful read of version 0, so quorum reads
	// succeed over partial misses and the miss becomes repairable
	// divergence. It is also the placement of record for writes. clock
	// is the client's Lamport version clock; sink, when set, receives
	// repair work (missed writes, divergence, topology changes).
	readsV *ring.Ring[string, verVal]
	clock  atomic.Uint64
	sink   atomic.Pointer[sinkBox]
}

// Backend is the one shard interface ShardedClient and the repair
// subsystem route over: plain and versioned reads, versioned writes,
// the anti-entropy scan, delete (for draining migrated keys), CAS, and
// prefix watches. MuxClient implements it. The v1 text-protocol Client
// does not, which keeps it out of the sharded stack.
type Backend interface {
	Addr() string
	Close() error
	Get(ctx context.Context, key string) ([]byte, error)
	GetV(ctx context.Context, key string) (value []byte, version uint64, ttlSecs uint32, err error)
	PutV(ctx context.Context, key string, value []byte, ttl time.Duration, version uint64) (current uint64, applied bool, err error)
	PutVBatch(ctx context.Context, puts []VersionedPut) []PutVResult
	Scan(ctx context.Context, after string, limit int) (entries []ScanEntry, more bool, err error)
	Delete(ctx context.Context, key string) error
	CAS(ctx context.Context, key string, value []byte, ttl time.Duration, expect uint64) (current uint64, applied bool, err error)
	Watch(ctx context.Context, prefix string, buf int) (*WatchStream, error)
}

// Former names of Backend, from when versioned operations, CAS and
// watches were optional shard capabilities.
type (
	// Deprecated: use Backend; every shard is versioned now.
	VersionedBackend = Backend
	// Deprecated: use Backend, which includes CAS.
	CASBackend = Backend
	// Deprecated: use Backend, which includes Watch.
	WatchableBackend = Backend
)

// ShardedConfig configures a ShardedClient. The zero value means:
// 2 placement copies per key, writes ack on every copy, reads race
// primary + secondary.
type ShardedConfig struct {
	// Replication is the number of shards each key is stored on
	// (primary + Replication-1 successors). Values below 1 mean
	// ring.DefaultReplication (2).
	Replication int
	// WriteQuorum is how many placement shards must ack a write before
	// it returns; the remaining copies finish in the background. Values
	// below 1 mean Replication (write-all). A quorum is always clamped to
	// the shards that exist, so a bootstrapping single-shard ring still
	// accepts writes.
	WriteQuorum int
	// ReadStrategy decides the redundancy of a Get within the key's
	// placement: nil means core.Fixed{Copies: 2} (the paper's
	// primary+secondary race); core.Fixed{Copies: 1} reads the primary
	// only; core.AdaptiveHedge hedges the secondary at a latency
	// quantile.
	ReadStrategy core.Strategy
	// VirtualNodes is the ring points per shard (0 means
	// ring.DefaultVirtualNodes).
	VirtualNodes int
	// Observer, when set, receives per-operation metrics from both rings
	// (first-wins reads and versioned quorum reads) — the observation
	// hook a feedback controller needs to watch per-class latency
	// digests and copies launched. core.Counters is the ready-made
	// implementation; tag calls with core.WithLabel to split classes.
	Observer core.Observer
}

// NewShardedClient builds a sharded store over the given single-shard
// clients (MuxClient, or any Backend). Shards are named by their
// client's Addr.
func NewShardedClient(cfg ShardedConfig, clients ...Backend) *ShardedClient {
	if cfg.Replication < 1 {
		cfg.Replication = ring.DefaultReplication
	}
	if cfg.WriteQuorum < 1 || cfg.WriteQuorum > cfg.Replication {
		cfg.WriteQuorum = cfg.Replication
	}
	if cfg.ReadStrategy == nil {
		cfg.ReadStrategy = core.Fixed{Copies: 2}
	}
	if cfg.VirtualNodes < 1 {
		cfg.VirtualNodes = ring.DefaultVirtualNodes
	}
	sc := &ShardedClient{
		clients:     make(map[string]Backend, len(clients)),
		replication: cfg.Replication,
		writeQuorum: cfg.WriteQuorum,
	}
	ropts := []ring.Option{
		ring.WithReplication(cfg.Replication),
		ring.WithVirtualNodes(cfg.VirtualNodes),
	}
	if cfg.Observer != nil {
		ropts = append(ropts, ring.WithObserver(cfg.Observer))
	}
	sc.reads = ring.New[string, []byte](cfg.ReadStrategy, ropts...)
	// Versioned quorum reads query the whole placement too: divergence is
	// only observable on the copies actually read.
	sc.readsV = ring.New[string, verVal](core.FullReplicate{}, ropts...)
	for _, cl := range clients {
		sc.AddShard(cl)
	}
	return sc
}

// AddShard registers a shard; keys whose placement now includes it route
// there from the next call on. Data written under the old topology is
// converged by the repair sink, if one is installed (repair.Manager):
// the sink is notified with the before/after placements and migrates
// remapped keys in the background. Adding a shard whose address is
// already present is a no-op.
func (sc *ShardedClient) AddShard(cl Backend) {
	sc.mu.Lock()
	addr := cl.Addr()
	if _, ok := sc.clients[addr]; ok {
		sc.mu.Unlock()
		return
	}
	prev := sc.readsV.Placement()
	sc.clients[addr] = cl
	sc.reads.Add(addr, cl.Get)
	sc.readsV.Add(addr, func(ctx context.Context, key string) (verVal, error) {
		val, ver, ttl, err := cl.GetV(ctx, key)
		if errors.Is(err, ErrNotFound) {
			// A miss is a successful read of version 0: the quorum holds
			// over partial misses and the gap becomes repairable
			// divergence rather than an error.
			return verVal{}, nil
		}
		if err != nil {
			return verVal{}, err
		}
		return verVal{val: val, ver: ver, ttlSecs: ttl}, nil
	})
	cur := sc.readsV.Placement()
	sink := sc.repairSink()
	sc.mu.Unlock()
	if sink != nil {
		sink.TopologyChanged(prev, cur)
	}
}

// RemoveShard drops the shard serving addr from placement, reporting
// whether it was present. Calls in flight may still complete against it;
// it is not closed (the caller owns its lifecycle). An installed repair
// sink is notified with the before/after placements so remapped keys can
// be re-homed (the removed shard may still be readable for draining).
func (sc *ShardedClient) RemoveShard(addr string) bool {
	sc.mu.Lock()
	if _, ok := sc.clients[addr]; !ok {
		sc.mu.Unlock()
		return false
	}
	prev := sc.readsV.Placement()
	delete(sc.clients, addr)
	sc.reads.Remove(addr)
	sc.readsV.Remove(addr)
	cur := sc.readsV.Placement()
	sink := sc.repairSink()
	sc.mu.Unlock()
	if sink != nil {
		sink.TopologyChanged(prev, cur)
	}
	return true
}

// ReadQuorum is the per-read consistency knob for Get: a read with
// ReadQuorum(q) completes only after q placement copies returned the
// key, so it can insist on R-of-N agreement (e.g. 2 of 3 to mask one
// failed replica) while the default read keeps first-response latency.
// Combine with core.WithCollectOutcomes to inspect each copy's value;
// GetQuorum is the version-aware form that also picks the newest copy.
func ReadQuorum(q int) core.CallOption { return core.WithQuorum(q) }

// Get returns the first placement shard's response for key, read
// redundantly under the client's ReadStrategy. Per-call options tune one
// read: ReadQuorum(q) for R-of-N agreement within the placement,
// core.WithFanoutCap(1) for a single-copy read,
// core.WithStrategyOverride for a one-off policy, core.WithLabel for
// metrics. A key absent from every queried shard reports
// errors.Is(err, ErrNotFound).
func (sc *ShardedClient) Get(ctx context.Context, key string, opts ...core.CallOption) ([]byte, error) {
	if len(opts) == 0 {
		// The common zero-option read rides the ring's DoValue fast lane
		// (pooled call frame, no option materialization).
		return sc.reads.DoValue(ctx, key)
	}
	res, err := sc.reads.Do(ctx, key, opts...)
	if err != nil {
		return nil, err
	}
	return res.Value, nil
}

// GetResult is Get with the full redundancy metadata (winner index,
// latency, copies launched and cancelled).
func (sc *ShardedClient) GetResult(ctx context.Context, key string, opts ...core.CallOption) (core.Result[[]byte], error) {
	return sc.reads.Do(ctx, key, opts...)
}

// GetBatch reads many keys in one batched engine pass: keys are grouped
// by shard placement (ring.DoBatch), each group runs as one
// core.DoBatchPicked — one schedule, shared-wheel hedge deadlines — and
// with MuxClient backends each shard sees its whole group as one
// coalesced wire round. Results are in key order; res[i].Err carries
// key i's failure (ErrNotFound for absent keys). The error is
// batch-level only (empty ring, bad option). See core.KeyedGroup.DoBatch
// for how batch cancellation semantics differ from per-key Get calls.
func (sc *ShardedClient) GetBatch(ctx context.Context, keys []string, opts ...core.CallOption) ([]core.BatchResult[[]byte], error) {
	return sc.reads.DoBatch(ctx, keys, opts...)
}

// Owners returns the shard addresses key is placed on, primary first.
func (sc *ShardedClient) Owners(key string) []string { return sc.reads.Owners(key) }

// Replication returns the placement copies per key.
func (sc *ShardedClient) Replication() int { return sc.replication }

// WriteQuorum returns the configured write quorum.
func (sc *ShardedClient) WriteQuorum() int { return sc.writeQuorum }

// SetReadStrategy replaces the read-side redundancy strategy atomically.
func (sc *ShardedClient) SetReadStrategy(s core.Strategy) { sc.reads.SetStrategy(s) }

// RingStats reports the read ring's placement and per-shard latency
// statistics: each shard's key share, observed latency digest quantiles,
// and cancelled-copy counts.
func (sc *ShardedClient) RingStats() ring.Stats { return sc.reads.Stats() }

// Close closes all shard clients.
func (sc *ShardedClient) Close() error {
	sc.mu.Lock()
	clients := make([]Backend, 0, len(sc.clients))
	for _, cl := range sc.clients {
		clients = append(clients, cl)
	}
	sc.mu.Unlock()
	var err error
	for _, cl := range clients {
		if e := cl.Close(); e != nil && err == nil {
			err = e
		}
	}
	return err
}
