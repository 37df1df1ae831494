package core

import (
	"fmt"
	"sync"
	"time"

	"github.com/mod-ds/mod/internal/alloc"
	"github.com/mod-ds/mod/internal/funcds"
	"github.com/mod-ds/mod/internal/pmem"
)

// Unified open API. Open is the one constructor for every store shape:
// it resolves its options to a list of device regions, and the length
// of that list sets the layout — one region is a single heap with no
// metadata region, k+1 regions are k shards followed by the cross-shard
// metadata region. The regions then go through exactly one formatStores
// or one attachStores (attach → replay → recover → verify → finish), so
// a single heap and a sharded store share every step of recovery. The
// KV interface is the store-shape-agnostic surface both Store and
// ShardedStore (and the DB wrapper) satisfy: bind roots, batch, commit
// asynchronously, sync, close, read stats. cmd/modserver is written
// against KV and runs unchanged over one heap or sixteen.

// KV is the store-shape-agnostic interface over a MOD store: named-root
// binding for the five structures, group-commit batching, durability
// draining, shutdown, and device counters. *Store, *ShardedStore, and
// *DB all satisfy it.
type KV interface {
	// Map binds (creating on first use) a recoverable map under a named
	// root; Set, Vector, Stack, and Queue bind the other structures.
	Map(name string) (*Map, error)
	Set(name string) (*Set, error)
	Vector(name string) (*Vector, error)
	Stack(name string) (*Stack, error)
	Queue(name string) (*Queue, error)
	// Batch returns an empty group-commit batch; its CommitAsync
	// submits to the background committer and returns a durability
	// Ticket.
	Batch() Batcher
	// Sync drains every outstanding commit and fences: everything
	// acknowledged so far is durable on return.
	Sync()
	// Close shuts the store down idempotently (see Store.Close).
	Close() error
	// Stats returns the aggregate device counters.
	Stats() pmem.Stats
	// ForkKV derives a handle with its own simulated clock for a worker
	// goroutine, sharing all store state.
	ForkKV() KV
}

// Batcher is the common surface of *Batch and *ShardedBatch: deferred
// updates accumulated for one group commit, published synchronously
// (Commit) or through the background committer (CommitAsync). A Batcher
// is not safe for concurrent use.
type Batcher interface {
	MapSet(m *Map, key, val []byte)
	MapDelete(m *Map, key []byte)
	SetInsert(s *Set, key []byte)
	SetDelete(s *Set, key []byte)
	VectorPush(v *Vector, val uint64)
	VectorUpdate(v *Vector, i uint64, val uint64)
	StackPush(s *Stack, val uint64)
	StackPop(s *Stack)
	QueueEnqueue(q *Queue, val uint64)
	QueueDequeue(q *Queue)
	// Len returns the number of operations accumulated.
	Len() int
	// Commit publishes synchronously; CommitAsync submits to the
	// background committer and returns a durability ticket.
	Commit()
	CommitAsync() *Ticket
}

// Batch returns an empty group-commit batch as a Batcher.
func (s *Store) Batch() Batcher { return s.NewBatch() }

// Batch returns an empty cross-shard batch as a Batcher.
func (ss *ShardedStore) Batch() Batcher { return ss.NewBatch() }

// ForkKV derives a per-goroutine handle (see Fork) as a KV.
func (s *Store) ForkKV() KV { return s.Fork() }

// ForkKV derives a per-goroutine handle set (see Fork) as a KV.
func (ss *ShardedStore) ForkKV() KV { return ss.Fork() }

var (
	_ KV      = (*Store)(nil)
	_ KV      = (*ShardedStore)(nil)
	_ KV      = (*DB)(nil)
	_ Batcher = (*Batch)(nil)
	_ Batcher = (*ShardedBatch)(nil)
)

// options collects the Open configuration.
type options struct {
	shards          int  // 0 = unset (single-heap store)
	shardsSet       bool // WithShards was passed (even with a bad count)
	selective       bool
	checkpointEvery int
	nodeCache       bool
	images          [][]byte
	devices         []pmem.Backend
	attach          bool
	committer       bool
	committerMaxOps int
	committerLinger time.Duration
	verify          bool
	salvage         bool
}

// Option configures Open.
type Option func(*options)

// WithShards partitions the store across n fully independent heap
// regions (plus a small cross-shard metadata region). Without this
// option Open builds a single-heap store with no metadata region and
// exactly the plain Store's fence economy; WithShards(1) is a genuine
// one-shard ShardedStore (metadata region included), which is what a
// shard-count sweep's baseline point wants. Over WithExistingImages or
// WithDevices, n must agree with the n+1 regions given, or Open fails
// with ErrShardCount.
func WithShards(n int) Option {
	return func(o *options) {
		o.shards = n
		o.shardsSet = true
	}
}

// WithSelective makes the DB's binders create the selectively persisted
// flavor of each structure (DESIGN.md §10): DRAM-resident navigation
// over a minimal persistent core. checkpointEvery sets the record-chain
// folding interval (0 keeps the current process-wide default). Existing
// roots keep the flavor they were created with.
func WithSelective(checkpointEvery int) Option {
	return func(o *options) {
		o.selective = true
		o.checkpointEvery = checkpointEvery
	}
}

// WithNodeCache enables the DRAM node cache on every heap: committed
// navigation nodes are served at DRAM latency instead of PM read
// latency.
func WithNodeCache() Option { return func(o *options) { o.nodeCache = true } }

// WithExistingImages reopens a store from post-crash region images
// instead of formatting a fresh one: a single image reopens a
// single-heap store, and S+1 images (shards in order, metadata last —
// the layout DB.CrashImages produces) reopen a sharded store.
func WithExistingImages(imgs [][]byte) Option { return func(o *options) { o.images = imgs } }

// WithDevices builds the store over caller-supplied backends instead of
// fresh simulator devices from cfg: one backend gives a single-heap
// store, and N+1 backends give N shards plus the cross-shard metadata
// region (last, matching the WithExistingImages layout). This is how a
// store lands on a real medium — pass mmapdev devices and the identical
// stack runs over a file. The devices are formatted; combine with
// WithAttach to recover what is already on them instead. Mutually
// exclusive with WithExistingImages.
func WithDevices(devs ...pmem.Backend) Option {
	return func(o *options) { o.devices = devs }
}

// WithAttach makes Open recover the store already present on the
// WithDevices backends — reachability scan, manifest replay, optional
// verification — instead of formatting them. It is the device-handle
// analog of WithExistingImages and requires WithDevices.
func WithAttach() Option { return func(o *options) { o.attach = true } }

// WithVerify makes a recovered open walk every root eagerly, checking
// node checksums and line readability before the store serves anything
// (corrupt.go). Damaged roots are quarantined — binds to them return
// ErrCorrupted — and reported in RecoveryInfo.Damaged; healthy roots
// serve normally. Without this option a recovered store arms lazy
// verification instead: each checksummed node is re-verified on its
// first post-recovery read.
func WithVerify() Option { return func(o *options) { o.verify = true } }

// WithSalvage implies WithVerify and additionally repairs damaged
// selective roots before quarantining: the record chain is replayed
// when it verifies, or the root rolls back to its last verifying
// checkpoint (the dropped record count is reported per root in
// RecoveryInfo.Damaged). Roots that cannot be salvaged are quarantined
// as under WithVerify.
func WithSalvage() Option {
	return func(o *options) {
		o.verify = true
		o.salvage = true
	}
}

// WithCommitter starts the background group committer(s) immediately,
// so CommitAsync submissions from concurrent goroutines coalesce into
// shared fence epochs. maxOps caps the operations per epoch (0 uses
// DefaultCommitterMaxOps). Close stops them.
func WithCommitter(maxOps int) Option {
	return func(o *options) {
		o.committer = true
		o.committerMaxOps = maxOps
	}
}

// WithCommitterLinger sets the floor of the committers' settle-fence
// collection window (see Store.SetCommitterLinger); the window itself
// grows to twice the measured settle-fence time. Under
// request/response-paced load a floor of a few tens of microseconds is
// what lets concurrent clients share fence epochs. Zero disables
// lingering. Implies nothing unless a committer runs.
func WithCommitterLinger(d time.Duration) Option {
	return func(o *options) { o.committerLinger = d }
}

// RecoveryInfo reports what Open recovered. Zero-valued (Recovered
// false) for a freshly formatted store.
type RecoveryInfo struct {
	// Recovered is true when the store was reopened from images.
	Recovered bool
	// Stats totals the reachability recovery across all shards.
	Stats alloc.RecoveryStats
	// PerShard holds each shard's recovery stats in shard order (one
	// entry for a single-heap store).
	PerShard []alloc.RecoveryStats
	// ManifestReplayed reports whether a committed cross-shard manifest
	// was found and its root swaps re-executed.
	ManifestReplayed bool
	// Damaged lists the roots that failed verification when the store
	// was opened WithVerify/WithSalvage: salvaged roots serve normally
	// (minus any DroppedOps), unsalvaged ones are quarantined.
	Damaged []DamagedRoot
}

// DB is the handle Open returns: a KV over either a single-heap Store
// or a ShardedStore, with option-aware binders (WithSelective routes
// Map/Set/... to the Selective* flavors). Exactly one of Store() and
// Sharded() is non-nil, for callers that need the concrete API
// (Composition-interface commits, explicit shard placement, trace
// checking).
type DB struct {
	kv        KV // the wrapped *Store or *ShardedStore
	store     *Store
	sharded   *ShardedStore
	selective bool
}

// Open formats (or, with WithExistingImages or WithAttach, recovers) a
// MOD store and returns it wrapped as a DB. The zero option set gives a
// single-heap store on a fresh device built from cfg; WithShards(n)
// partitions it; WithExistingImages reopens a crashed one, with the
// recovery reported in the RecoveryInfo. A region that fails recovery —
// a clean error or a media-fault panic on any shard — fails the Open
// with a *CorruptionError naming the shard. The returned DB (and any
// nil DB from a failed open) is safe to Close and Sync in all cases.
func Open(cfg pmem.Config, opts ...Option) (*DB, RecoveryInfo, error) {
	var o options
	for _, opt := range opts {
		opt(&o)
	}
	if o.shardsSet && o.shards < 1 {
		return nil, RecoveryInfo{}, fmt.Errorf("core: open with %d shards: %w", o.shards, ErrShardCount)
	}
	if len(o.devices) > 0 && o.images != nil {
		return nil, RecoveryInfo{}, fmt.Errorf("core: WithDevices and WithExistingImages are mutually exclusive")
	}
	if o.attach && len(o.devices) == 0 {
		return nil, RecoveryInfo{}, fmt.Errorf("core: WithAttach requires WithDevices")
	}
	regions := o.regions(cfg)
	n := len(regions)
	if n < 1 || o.shardsSet && n != o.shards+1 {
		return nil, RecoveryInfo{}, fmt.Errorf("core: open with %d shards over %d regions (one region is a single heap, k+1 are k shards then the metadata region): %w",
			o.shards, n, ErrShardCount)
	}
	if o.checkpointEvery > 0 {
		funcds.SetCheckpointEvery(uint64(o.checkpointEvery))
	}
	shards, meta := regions, pmem.Backend(nil)
	if n > 1 {
		shards, meta = regions[:n-1], regions[n-1]
	}
	var (
		db   *DB
		info RecoveryInfo
		err  error
	)
	if o.images != nil || o.attach {
		db, info, err = attachStores(shards, meta, verifyConfig{verify: o.verify, salvage: o.salvage})
	} else {
		db, err = formatStores(shards, meta)
	}
	if err != nil {
		return nil, RecoveryInfo{}, err
	}
	db.selective = o.selective
	if o.nodeCache {
		db.EnableNodeCache()
	}
	if o.committer {
		if db.store != nil {
			db.store.StartGroupCommitter(o.committerMaxOps)
		} else {
			db.sharded.StartGroupCommitters(o.committerMaxOps)
		}
	}
	if o.committerLinger > 0 {
		db.SetCommitterLinger(o.committerLinger)
	}
	return db, info, nil
}

// regions resolves the options to the store's device regions: the
// WithDevices backends as given, or one simulator device per
// WithExistingImages image, or fresh simulator devices from cfg — one,
// or one per WithShards shard plus the metadata region. A list of more
// than one region always ends with the metadata region.
func (o *options) regions(cfg pmem.Config) []pmem.Backend {
	if len(o.devices) > 0 {
		return o.devices
	}
	n := 1
	switch {
	case o.images != nil:
		n = len(o.images)
	case o.shardsSet:
		n = o.shards + 1
	}
	regions := make([]pmem.Backend, n)
	for i := range regions {
		c := cfg
		if n > 1 && i == n-1 {
			c = metaConfig(cfg)
		}
		if o.images != nil {
			regions[i] = pmem.NewFromImage(c, o.images[i])
		} else {
			regions[i] = pmem.New(c)
		}
	}
	return regions
}

// newDB wraps opened shard stores: a single-heap DB when meta is nil,
// otherwise a sharded one over meta.
func newDB(stores []*Store, meta pmem.Backend) *DB {
	if meta == nil {
		return &DB{kv: stores[0], store: stores[0]}
	}
	ss := newSharded(stores, meta)
	return &DB{kv: ss, sharded: ss}
}

// formatStores formats an empty store over the shard regions and, when
// meta is non-nil, writes the metadata region's magic and shard count.
// meta == nil means a single heap.
func formatStores(shards []pmem.Backend, meta pmem.Backend) (*DB, error) {
	stores := make([]*Store, len(shards))
	for i, d := range shards {
		s, err := newStore(d)
		if err != nil {
			return nil, fmt.Errorf("core: shard %d: %w", i, err)
		}
		stores[i] = s
	}
	if meta != nil {
		meta.WriteU64(0, shardMagic)
		meta.WriteU64(8, uint64(len(shards)))
		meta.FlushRange(0, 16)
		meta.Sfence()
	}
	return newDB(stores, meta), nil
}

// attachStores recovers the store already on the shard regions (meta ==
// nil means a single heap) in one pipeline for every shape:
//
//	attach   each shard replays its own batch record and commit log —
//	         cheap work that must precede reachability;
//	replay   a committed cross-shard manifest is redone before any
//	         scan, so every shard's recovery traces the post-batch roots;
//	recover  one goroutine per shard runs the reachability scan (§5.3),
//	         verify/salvage when asked, the selective rebuild, and the
//	         device's recovery note — total recovery time is the slowest
//	         shard's, not the sum;
//	finish   the handles are built, damage quarantined, and the manifest
//	         retired.
//
// Every failure — a recovery error or a panic from a scan walking a
// scrambled or poisoned region, on any goroutine — becomes one
// *CorruptionError naming the shard it came from (shard 0 for the
// metadata region), so a damaged region fails the open instead of the
// process.
func attachStores(shards []pmem.Backend, meta pmem.Backend, vc verifyConfig) (db *DB, info RecoveryInfo, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = openFault(0, r)
		}
		if err != nil {
			db, info, err = nil, RecoveryInfo{}, openFault(0, err)
		}
	}()
	n := len(shards)
	if meta != nil {
		if got := meta.ReadU64(0); got != shardMagic {
			return nil, info, fmt.Errorf("core: bad shard metadata magic %#x", got)
		}
		if got := meta.ReadU64(8); got != uint64(n) {
			return nil, info, fmt.Errorf("core: store has %d shards, got %d shard regions", got, n)
		}
	}

	atts := make([]*storeAttachment, n)
	for i, d := range shards {
		a, err := attachStore(d)
		if err != nil {
			return nil, info, openFault(i, err)
		}
		atts[i] = a
	}

	// The redo writes are idempotent 8-byte swaps, fenced per shard
	// before the status clears, so a second crash replays again.
	var dirty bool
	if meta != nil {
		var entries []manifestEntry
		entries, dirty = readManifest(meta)
		touched := make(map[int]bool)
		for _, e := range entries {
			if e.shard < 0 || e.shard >= n {
				return nil, info, fmt.Errorf("core: manifest entry names shard %d of %d", e.shard, n)
			}
			shards[e.shard].WriteAddr(e.cell, e.final)
			shards[e.shard].Clwb(e.cell)
			touched[e.shard] = true
		}
		for i := range touched {
			shards[i].Sfence()
		}
		info.ManifestReplayed = len(entries) > 0
	}

	info.Recovered = true
	info.PerShard = make([]alloc.RecoveryStats, n)
	damage := make([][]DamagedRoot, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i, a := range atts {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					errs[i] = openFault(i, r)
				}
			}()
			start := a.dev.LocalNs()
			rs, err := a.heap.Recover()
			info.PerShard[i] = rs
			if err != nil {
				errs[i] = openFault(i, err)
				return
			}
			var skip map[int]bool
			if vc.verify {
				damage[i], skip = verifyHeap(a.heap, i, vc.salvage)
			}
			replayed, err := rebuildSelectiveRoots(a.heap, skip)
			if err != nil {
				errs[i] = openFault(i, err)
				return
			}
			if !vc.verify {
				a.heap.ArmLazyVerify()
			}
			a.dev.NoteRecovery(replayed, a.dev.LocalNs()-start)
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, info, err
		}
	}

	stores := make([]*Store, n)
	for i, a := range atts {
		s, err := a.finishOpen()
		if err != nil {
			return nil, info, openFault(i, err)
		}
		stores[i] = s
	}
	for i, rs := range info.PerShard {
		info.Damaged = append(info.Damaged, damage[i]...)
		info.Stats.LiveBlocks += rs.LiveBlocks
		info.Stats.LiveBytes += rs.LiveBytes
		info.Stats.LeakedBlocks += rs.LeakedBlocks
		info.Stats.LeakedBytes += rs.LeakedBytes
		info.Stats.Roots += rs.Roots
		info.Stats.VolatileBlocks += rs.VolatileBlocks
	}
	quarantineDamage(stores, info.Damaged)
	if dirty {
		meta.WriteU64(manifestBase, manifestStatusIdle)
		meta.Clwb(manifestBase)
		meta.Sfence()
	}
	return newDB(stores, meta), info, nil
}

// SetCommitterLinger sets the floor of every committer's settle-fence
// collection window (see Store.SetCommitterLinger).
func (db *DB) SetCommitterLinger(d time.Duration) {
	if db.store != nil {
		db.store.SetCommitterLinger(d)
		return
	}
	db.sharded.SetCommitterLinger(d)
}

// Store returns the wrapped single-heap store, or nil for a sharded DB.
func (db *DB) Store() *Store { return db.store }

// Sharded returns the wrapped sharded store, or nil for a single-heap
// DB.
func (db *DB) Sharded() *ShardedStore { return db.sharded }

// ShardCount returns the number of heap regions (1 for a single-heap
// store).
func (db *DB) ShardCount() int {
	if db.sharded != nil {
		return db.sharded.ShardCount()
	}
	return 1
}

// Fork derives a DB handle with per-goroutine clocks, sharing all store
// state.
func (db *DB) Fork() *DB {
	out := &DB{selective: db.selective}
	if db.store != nil {
		out.store = db.store.Fork()
		out.kv = out.store
	} else {
		out.sharded = db.sharded.Fork()
		out.kv = out.sharded
	}
	return out
}

// ForkKV derives a per-goroutine handle as a KV.
func (db *DB) ForkKV() KV { return db.Fork() }

// Map binds (creating on first use) a recoverable map — the selectively
// persisted flavor when the DB was opened WithSelective.
func (db *DB) Map(name string) (*Map, error) {
	if db.selective {
		if db.store != nil {
			return db.store.SelectiveMap(name)
		}
		return db.sharded.SelectiveMap(name)
	}
	return db.kv.Map(name)
}

// Set binds a recoverable set (selective flavor under WithSelective).
func (db *DB) Set(name string) (*Set, error) {
	if db.selective {
		if db.store != nil {
			return db.store.SelectiveSet(name)
		}
		return db.sharded.SelectiveSet(name)
	}
	return db.kv.Set(name)
}

// Vector binds a recoverable vector (selective flavor under
// WithSelective).
func (db *DB) Vector(name string) (*Vector, error) {
	if db.selective {
		if db.store != nil {
			return db.store.SelectiveVector(name)
		}
		return db.sharded.SelectiveVector(name)
	}
	return db.kv.Vector(name)
}

// Stack binds a recoverable stack (selective flavor under
// WithSelective).
func (db *DB) Stack(name string) (*Stack, error) {
	if db.selective {
		if db.store != nil {
			return db.store.SelectiveStack(name)
		}
		return db.sharded.SelectiveStack(name)
	}
	return db.kv.Stack(name)
}

// Queue binds a recoverable queue (selective flavor under
// WithSelective).
func (db *DB) Queue(name string) (*Queue, error) {
	if db.selective {
		if db.store != nil {
			return db.store.SelectiveQueue(name)
		}
		return db.sharded.SelectiveQueue(name)
	}
	return db.kv.Queue(name)
}

// Batch returns an empty group-commit batch.
func (db *DB) Batch() Batcher { return db.kv.Batch() }

// Sync drains every outstanding commit and fences. Nil-safe, so a
// deferred Sync after a failed Open is harmless.
func (db *DB) Sync() {
	if db == nil {
		return
	}
	db.kv.Sync()
}

// Close shuts the store down. Idempotent and nil-safe, so a deferred
// Close after a failed Open is harmless.
func (db *DB) Close() error {
	if db == nil {
		return nil
	}
	return db.kv.Close()
}

// Stats returns the aggregate device counters (summed across regions
// for a sharded DB).
func (db *DB) Stats() pmem.Stats { return db.kv.Stats() }

// EnableNodeCache turns on the DRAM node cache on every heap.
func (db *DB) EnableNodeCache() {
	if db.store != nil {
		db.store.EnableNodeCache()
		return
	}
	for i := 0; i < db.sharded.ShardCount(); i++ {
		db.sharded.Shard(i).EnableNodeCache()
	}
}

// CrashImages returns post-power-failure images of every region, in the
// layout WithExistingImages expects: one image for a single-heap DB,
// shard images in order plus the metadata region for a sharded DB.
// Requires Config.TrackDurable.
func (db *DB) CrashImages(policy pmem.CrashPolicy, seed uint64) [][]byte {
	if db.store != nil {
		return [][]byte{db.store.Device().CrashImage(policy, seed)}
	}
	return db.sharded.CrashImages(policy, seed)
}
