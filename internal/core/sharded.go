package core

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/mod-ds/mod/internal/pmem"
)

// Sharded store (DESIGN.md §9). A single MOD heap serializes three
// things through one arena: allocation (the bump pointer and free
// lists), commit ordering (every FASE's fence drains one device-wide
// inflight set), and recovery (one reachability scan). ShardedStore
// partitions the root namespace across S fully independent stores —
// each with its own pmem.Device region, its own heap, open-run table,
// epoch reclaimer, commit log, batch record, and background committer —
// so unrelated FASEs on different shards never share a fence, never
// contend on an allocator lock, and recover in parallel.
//
// Root names route to shards by hash (ShardFor); a handle bound through
// the sharded store is an ordinary single-store handle on its shard, so
// single-shard operations keep today's cost exactly: a Basic update is
// one FASE with one fence, a single-shard batch commits through its
// shard's 1-fence (single root) or 2-fence (batch record) path.
//
// # Cross-shard atomicity: the shard manifest
//
// A ShardedBatch whose updates span shards cannot ride any one shard's
// batch record — each record orders only its own device. Instead the
// store commits through a two-phase checksummed manifest in a small
// dedicated metadata region:
//
//	phase 0  apply: each involved shard prepares its updates (shadow
//	         chains built and sealed under its root locks) and fences,
//	         so every shadow is durable; nothing is published.
//	phase 1  intent: the manifest body — (shard, root cell, new
//	         version) triples plus a checksum binding them to this
//	         commit's sequence number — is written and fenced, then the
//	         status word is set to the sequence number and fenced. That
//	         8-byte status write is the batch's atomic commit point.
//	phase 2  per-shard redo: each shard's root cells are overwritten
//	         (idempotent 8-byte swaps) and fenced.
//	phase 3  mark durable: the status word returns to idle and is
//	         fenced. The idle write is issued only after the redo
//	         fences, so it can never become durable while a swap is
//	         not; it is fenced eagerly because no later single-shard
//	         commit ever fences the metadata region, and a manifest
//	         left committed-but-retired could otherwise be replayed
//	         after its roots had durably moved on, rolling them back.
//
// A recovering Open (attachStores, db.go) replays a committed manifest
// before any shard's reachability scan: a crash before the commit point recovers none of
// the batch (the shadows are swept as leaks), a crash at or after it
// recovers all of it. A cross-shard commit touching k shards costs
// 2k+3 fences — the uncommon, explicitly cross-shard case; everything
// else keeps its single ordering point.

// shardMagic identifies the metadata region of a sharded store.
const shardMagic = 0x4d4f442d53484152 // "MOD-SHAR"

// Manifest layout within the metadata region (offsets from
// manifestBase):
//
//	+0   status   (0 idle; a nonzero sequence number = committed)
//	+8   count    (number of entries)
//	+16  checksum (fnv1a over the sequence number, count, and entries)
//	+24  entries: count × {shard u64, root cell addr u64, version u64}
const (
	metaRegionBytes    = 4096
	manifestBase       = pmem.Addr(64)
	manifestStatusIdle = 0
	manifestHdrSize    = 24
	manifestEntrySize  = 24
)

// MaxManifestEntries bounds how many root cells one cross-shard batch
// can change, by the capacity of the metadata region.
const MaxManifestEntries = (metaRegionBytes - int(manifestBase) - manifestHdrSize) / manifestEntrySize

// shardedShared is the cross-shard state common to all handles of one
// sharded store: the manifest lock serializing cross-shard commits, the
// manifest sequence counter, and the closed flag.
type shardedShared struct {
	mu     sync.Mutex
	seq    uint64 // last manifest sequence number; guarded by mu
	closed atomic.Bool
}

// ShardedStore is a handle onto a persistent store partitioned across
// independent per-shard heaps. Derive one handle per goroutine with
// Fork; handles share all store state but carry their own clocks.
type ShardedStore struct {
	shards   []*Store
	meta     pmem.Backend
	regions  *pmem.Regions
	sh       *shardedShared
	byShared map[*storeShared]int // shard store identity -> shard index
}

// metaConfig derives the metadata region's device configuration.
func metaConfig(cfg pmem.Config) pmem.Config {
	cfg.Size = metaRegionBytes
	cfg.Tracer = nil
	return cfg
}

func newSharded(stores []*Store, meta pmem.Backend) *ShardedStore {
	devs := make([]pmem.Backend, 0, len(stores)+1)
	byShared := make(map[*storeShared]int, len(stores))
	for i, s := range stores {
		devs = append(devs, s.Device())
		byShared[s.sh] = i
	}
	devs = append(devs, meta)
	return &ShardedStore{
		shards:   stores,
		meta:     meta,
		regions:  pmem.NewRegions(devs...),
		sh:       &shardedShared{},
		byShared: byShared,
	}
}

// manifestEntry is one decoded manifest triple.
type manifestEntry struct {
	shard int
	cell  pmem.Addr
	final pmem.Addr
}

// readManifest decodes the metadata region's manifest. It returns the
// entries to replay (nil unless the status word holds a committed
// sequence number whose checksum validates the body) and whether the
// status word needs clearing.
func readManifest(meta pmem.Backend) (entries []manifestEntry, dirty bool) {
	seq := meta.ReadU64(manifestBase)
	if seq == manifestStatusIdle {
		return nil, false
	}
	count := meta.ReadU64(manifestBase + 8)
	sum := meta.ReadU64(manifestBase + 16)
	if count < 1 || count > uint64(MaxManifestEntries) {
		return nil, true
	}
	words := make([]uint64, 0, 2+3*count)
	words = append(words, seq, count)
	for i := uint64(0); i < count; i++ {
		e := manifestBase + manifestHdrSize + pmem.Addr(i*manifestEntrySize)
		words = append(words, meta.ReadU64(e), meta.ReadU64(e+8), meta.ReadU64(e+16))
	}
	if batchChecksum(words) != sum {
		// A stale status torn against a later manifest's partially
		// durable body: the earlier batch already completed its swaps
		// (or never reached its commit point); discard.
		return nil, true
	}
	entries = make([]manifestEntry, count)
	for i := range entries {
		entries[i] = manifestEntry{
			shard: int(words[2+3*i]),
			cell:  pmem.Addr(words[3+3*i]),
			final: pmem.Addr(words[4+3*i]),
		}
	}
	return entries, true
}

// Fork returns a new handle set onto the same sharded store whose
// per-shard device and heap handles carry fresh per-goroutine clocks.
func (ss *ShardedStore) Fork() *ShardedStore {
	shards := make([]*Store, len(ss.shards))
	for i, s := range ss.shards {
		shards[i] = s.Fork()
	}
	return &ShardedStore{
		shards:   shards,
		meta:     ss.meta.Fork(),
		regions:  ss.regions,
		sh:       ss.sh,
		byShared: ss.byShared,
	}
}

// ShardCount returns the number of shards.
func (ss *ShardedStore) ShardCount() int { return len(ss.shards) }

// Shard returns the store handle of shard i, for explicit placement
// (binding a root on a chosen shard rather than by name hash).
func (ss *ShardedStore) Shard(i int) *Store { return ss.shards[i] }

// Meta returns the metadata region's device handle.
func (ss *ShardedStore) Meta() pmem.Backend { return ss.meta }

// Regions returns the store's device regions: the shard regions in
// shard order, then the metadata region.
func (ss *ShardedStore) Regions() *pmem.Regions { return ss.regions }

// hashRoot is fnv1a over the root name, the shard routing hash.
func hashRoot(name string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= 1099511628211
	}
	return h
}

// ShardFor returns the shard index a root name routes to.
func (ss *ShardedStore) ShardFor(name string) int {
	return int(hashRoot(name) % uint64(len(ss.shards)))
}

// StoreFor returns the shard store a root name routes to.
func (ss *ShardedStore) StoreFor(name string) *Store {
	return ss.shards[ss.ShardFor(name)]
}

// Map binds (creating on first use) a recoverable map under a named
// root on the shard the name routes to.
func (ss *ShardedStore) Map(name string) (*Map, error) { return ss.StoreFor(name).Map(name) }

// Set binds a recoverable set on the shard the name routes to.
func (ss *ShardedStore) Set(name string) (*Set, error) { return ss.StoreFor(name).Set(name) }

// Vector binds a recoverable vector on the shard the name routes to.
func (ss *ShardedStore) Vector(name string) (*Vector, error) { return ss.StoreFor(name).Vector(name) }

// Stack binds a recoverable stack on the shard the name routes to.
func (ss *ShardedStore) Stack(name string) (*Stack, error) { return ss.StoreFor(name).Stack(name) }

// Queue binds a recoverable queue on the shard the name routes to.
func (ss *ShardedStore) Queue(name string) (*Queue, error) { return ss.StoreFor(name).Queue(name) }

// SelectiveMap binds a selectively persisted map (DESIGN.md §10) on the
// shard the name routes to.
func (ss *ShardedStore) SelectiveMap(name string) (*Map, error) {
	return ss.StoreFor(name).SelectiveMap(name)
}

// SelectiveSet binds a selectively persisted set on the shard the name
// routes to.
func (ss *ShardedStore) SelectiveSet(name string) (*Set, error) {
	return ss.StoreFor(name).SelectiveSet(name)
}

// SelectiveVector binds a selectively persisted vector on the shard the
// name routes to.
func (ss *ShardedStore) SelectiveVector(name string) (*Vector, error) {
	return ss.StoreFor(name).SelectiveVector(name)
}

// SelectiveStack binds a selectively persisted stack on the shard the
// name routes to.
func (ss *ShardedStore) SelectiveStack(name string) (*Stack, error) {
	return ss.StoreFor(name).SelectiveStack(name)
}

// SelectiveQueue binds a selectively persisted queue on the shard the
// name routes to.
func (ss *ShardedStore) SelectiveQueue(name string) (*Queue, error) {
	return ss.StoreFor(name).SelectiveQueue(name)
}

// Sync makes everything committed so far durable on every shard and
// reclaims retired blocks shard by shard. On a closed store Sync is a
// no-op: Close already fenced everything.
func (ss *ShardedStore) Sync() {
	if ss == nil || ss.sh.closed.Load() {
		return
	}
	for _, s := range ss.shards {
		s.Sync()
	}
	ss.meta.Sfence() // defense in depth; manifest retirement is fenced inline
}

// Closed reports whether Close has been called on any handle of this
// sharded store.
func (ss *ShardedStore) Closed() bool { return ss.sh.closed.Load() }

// Close drains and stops every shard's background committer, fences each
// shard and the metadata region, and marks the store closed: subsequent
// binds return ErrStoreClosed, and CommitAsync tickets resolve with
// ErrStoreClosed instead of hanging. Idempotent, and safe on a store
// whose open failed partway.
func (ss *ShardedStore) Close() error {
	if ss == nil || !ss.sh.closed.CompareAndSwap(false, true) {
		return nil
	}
	for _, s := range ss.shards {
		s.Close()
	}
	ss.meta.Sfence()
	return nil
}

// StartGroupCommitters launches one background group committer per
// shard. Batches submitted on different shards coalesce into separate
// fence epochs on their own devices, so shards never share a fence.
func (ss *ShardedStore) StartGroupCommitters(maxOps int) {
	for _, s := range ss.shards {
		s.StartGroupCommitter(maxOps)
	}
}

// StopGroupCommitters drains and stops every shard's committer.
func (ss *ShardedStore) StopGroupCommitters() {
	for _, s := range ss.shards {
		s.StopGroupCommitter()
	}
}

// SetCommitterLinger sets the floor of every shard committer's
// settle-fence collection window (see Store.SetCommitterLinger).
func (ss *ShardedStore) SetCommitterLinger(d time.Duration) {
	for _, s := range ss.shards {
		s.SetCommitterLinger(d)
	}
}

// SetMutexCommit switches every shard's Basic-interface updates between
// the legacy per-root-mutex commit path (true) and the two-tier
// optimistic path (false, the default). See Store.SetMutexCommit.
func (ss *ShardedStore) SetMutexCommit(on bool) {
	for _, s := range ss.shards {
		s.SetMutexCommit(on)
	}
}

// CommitStats returns the commit-tier counters summed across shards.
func (ss *ShardedStore) CommitStats() CommitStats {
	var t CommitStats
	for _, s := range ss.shards {
		c := s.CommitStats()
		t.FastWins += c.FastWins
		t.FastAborts += c.FastAborts
		t.FastLosses += c.FastLosses
		t.Combines += c.Combines
		t.CombineRetries += c.CombineRetries
		t.CombinedOps += c.CombinedOps
		t.LockedCommits += c.LockedCommits
	}
	return t
}

// Stats returns the aggregate device counters across every region
// (shards plus metadata). Per-region breakdowns are available through
// ShardStats and MetaStats; the aggregate is their exact counter-wise
// sum, a property the test suite pins.
func (ss *ShardedStore) Stats() pmem.Stats { return ss.regions.Stats() }

// ShardStats returns shard i's device counters.
func (ss *ShardedStore) ShardStats(i int) pmem.Stats { return ss.shards[i].Device().Stats() }

// MetaStats returns the metadata region's device counters.
func (ss *ShardedStore) MetaStats() pmem.Stats { return ss.meta.Stats() }

// CrashImages returns post-power-failure images of every region (shards
// in order, metadata last), the layout WithExistingImages expects.
func (ss *ShardedStore) CrashImages(policy pmem.CrashPolicy, seed uint64) [][]byte {
	return ss.regions.CrashImages(policy, seed)
}

// shardOf resolves the shard index owning a datastructure's store.
func (ss *ShardedStore) shardOf(ds Datastructure) int {
	if i, ok := ss.byShared[ds.store().sh]; ok {
		return i
	}
	panic(fmt.Sprintf("core: datastructure %q does not belong to this sharded store", ds.Name()))
}

// ShardedBatch accumulates updates for one commit across any number of
// shards. Updates that land on a single shard commit through that
// shard's ordinary group-commit paths (1 fence single-root, 2 fences
// multi-root); updates spanning shards commit atomically through the
// shard manifest. A ShardedBatch is not safe for concurrent use.
type ShardedBatch struct {
	ss  *ShardedStore
	per map[int][]batchOp // shard index -> ops, submission order kept
	n   int
}

// NewBatch returns an empty cross-shard batch bound to this handle.
func (ss *ShardedStore) NewBatch() *ShardedBatch { return &ShardedBatch{ss: ss} }

// Len returns the number of operations accumulated.
func (b *ShardedBatch) Len() int { return b.n }

func (b *ShardedBatch) addOp(op batchOp) {
	if op.ds.location().parent != nil {
		panic(fmt.Sprintf("core: batched update of parent-bound %q (batches require root-bound datastructures)", op.ds.Name()))
	}
	si := b.ss.shardOf(op.ds)
	if b.per == nil {
		b.per = make(map[int][]batchOp)
	}
	b.per[si] = append(b.per[si], op)
	b.n++
}

// MapSet queues binding key to val in m. Key and value are copied.
func (b *ShardedBatch) MapSet(m *Map, key, val []byte) { b.addOp(mapSetOp(m, key, val)) }

// MapDelete queues removing key from m.
func (b *ShardedBatch) MapDelete(m *Map, key []byte) { b.addOp(mapDeleteOp(m, key)) }

// SetInsert queues adding key to st.
func (b *ShardedBatch) SetInsert(st *Set, key []byte) { b.addOp(setInsertOp(st, key)) }

// SetDelete queues removing key from st.
func (b *ShardedBatch) SetDelete(st *Set, key []byte) { b.addOp(setDeleteOp(st, key)) }

// VectorPush queues appending val to v.
func (b *ShardedBatch) VectorPush(v *Vector, val uint64) { b.addOp(vectorPushOp(v, val)) }

// VectorUpdate queues replacing element i of v with val.
func (b *ShardedBatch) VectorUpdate(v *Vector, i uint64, val uint64) {
	b.addOp(vectorUpdateOp(v, i, val))
}

// StackPush queues pushing val onto st.
func (b *ShardedBatch) StackPush(st *Stack, val uint64) { b.addOp(stackPushOp(st, val)) }

// StackPop queues removing the top element of st (no-op on empty).
func (b *ShardedBatch) StackPop(st *Stack) { b.addOp(stackPopOp(st)) }

// QueueEnqueue queues appending val at the tail of q.
func (b *ShardedBatch) QueueEnqueue(q *Queue, val uint64) { b.addOp(queueEnqueueOp(q, val)) }

// QueueDequeue queues removing the head element of q (no-op on empty).
func (b *ShardedBatch) QueueDequeue(q *Queue) { b.addOp(queueDequeueOp(q)) }

// Commit applies every queued operation and publishes the results,
// leaving the batch empty. Single-shard batches keep their shard's
// usual fence economy; cross-shard batches are made crash-atomic by the
// shard manifest — recovery sees all of the batch or none of it.
func (b *ShardedBatch) Commit() {
	per := b.per
	b.per = nil
	b.n = 0
	b.ss.commitSharded(per)
}

// CommitAsync publishes the batch and returns a ticket that resolves
// when it is durable. A batch confined to one shard rides that shard's
// background committer, coalescing with other goroutines' submissions
// into shared fence epochs; a cross-shard batch publishes synchronously
// through the shard manifest and the ticket resolves on return. On a
// closed store the batch is dropped and the ticket resolves immediately
// with ErrStoreClosed.
func (b *ShardedBatch) CommitAsync() *Ticket {
	per := b.per
	b.per = nil
	b.n = 0
	if b.ss.sh.closed.Load() {
		return failedTicket(ErrStoreClosed)
	}
	if len(per) == 1 {
		for si, ops := range per {
			return b.ss.shards[si].commitAsyncOps(ops)
		}
	}
	b.ss.commitSharded(per)
	// The manifest path fences each involved shard after its redo swaps,
	// but a batch that collapsed to one shard's local publication leaves
	// its final swap riding the next fence — settle each involved shard
	// so the ticket's durability contract holds in every case.
	for si := range per {
		b.ss.shards[si].heap.Fence()
	}
	t := &Ticket{done: make(chan struct{})}
	close(t.done)
	return t
}

// commitSharded is the cross-shard group-commit step. Shards are
// prepared in ascending index order (and each shard locks its roots in
// ascending slot order), so overlapping cross-shard commits cannot
// deadlock; the manifest lock then serializes publication.
func (ss *ShardedStore) commitSharded(per map[int][]batchOp) {
	order := make([]int, 0, len(per))
	for si, ops := range per {
		if len(ops) > 0 {
			order = append(order, si)
		}
	}
	if len(order) == 0 {
		return
	}
	sort.Ints(order)
	if len(order) == 1 {
		// Everything on one shard: the shard's own publication paths
		// already give batch atomicity at 1 or 2 fences.
		ss.shards[order[0]].commitBatch(per[order[0]])
		return
	}

	// Phase 0: apply on every involved shard. Each prepare holds its
	// shard's root locks until finish, and seals its edit so all shadow
	// lines are inflight on the shard's device.
	preps := make([]*preparedBatch, len(order))
	for i, si := range order {
		preps[i] = ss.shards[si].prepareBatch(per[si])
	}
	var entries []manifestEntry
	changed := make([]bool, len(order))
	for i, p := range preps {
		for _, c := range p.changed {
			entries = append(entries, manifestEntry{
				shard: order[i],
				cell:  p.s.heap.RootCellAddr(c.slot),
				final: c.final,
			})
		}
		changed[i] = len(p.changed) > 0
	}
	if len(entries) > MaxManifestEntries {
		panic(fmt.Sprintf("core: cross-shard batch changes %d roots (max %d)", len(entries), MaxManifestEntries))
	}

	single := -1
	for i := range preps {
		if changed[i] {
			if single >= 0 {
				single = -2 // two or more shards changed
				break
			}
			single = i
		}
	}
	switch {
	case single == -1:
		// No root changed anywhere: nothing to publish or order.
	case single >= 0:
		// Only one shard actually changed: its local publication paths
		// are already all-or-nothing, skip the manifest.
		preps[single].publishLocal()
	default:
		// Shadow durability: one fence per changed shard, before the
		// commit point can be written. Selective structures due for a
		// checkpoint prepare it first (crown flushes ride the shard's
		// fence) and clear their crown durable behind it — program order
		// puts every clear fence before the manifest's commit point, so
		// a replayed swap can never publish a structure whose navigation
		// recovery would zero.
		for i, p := range preps {
			if changed[i] {
				var crown []pmem.Addr
				for _, c := range p.changed {
					crown = append(crown, p.s.maybeCheckpoint(c.final)...)
				}
				p.s.heap.Fence()
				p.s.clearCrown(crown)
			}
		}
		meta := ss.meta
		ss.sh.mu.Lock()
		ss.sh.seq++ // serialized by the manifest lock; 0 is reserved for idle
		seq := ss.sh.seq
		words := make([]uint64, 0, 2+3*len(entries))
		words = append(words, seq, uint64(len(entries)))
		for i, e := range entries {
			a := manifestBase + manifestHdrSize + pmem.Addr(i*manifestEntrySize)
			meta.WriteU64(a, uint64(e.shard))
			meta.WriteU64(a+8, uint64(e.cell))
			meta.WriteU64(a+16, uint64(e.final))
			words = append(words, uint64(e.shard), uint64(e.cell), uint64(e.final))
		}
		meta.WriteU64(manifestBase+8, uint64(len(entries)))
		meta.WriteU64(manifestBase+16, batchChecksum(words))
		meta.FlushRange(manifestBase+8, 16+len(entries)*manifestEntrySize)
		// Intent fence: the body — and any previous manifest's
		// retirement — is durable while the status is still idle, so a
		// crash here recovers none of the batch.
		meta.Sfence()
		meta.WriteU64(manifestBase, seq)
		meta.Clwb(manifestBase)
		meta.Sfence() // the status write is the batch's atomic commit point
		// Per-shard redo: overwrite the root cells, fencing each shard so
		// every swap is durable before the manifest retires.
		for i, p := range preps {
			if !changed[i] {
				continue
			}
			p.s.commitBegin()
			for _, c := range p.changed {
				p.s.heap.SetRoot(c.slot, c.final)
			}
			p.s.commitEnd()
			p.s.heap.Fence()
		}
		// Mark durable: idle status issued only now, after the redo
		// fences, so it can never become durable while a swap is not —
		// and fenced immediately. Unlike the single-device batch record,
		// whose retirement rides its own device's next commit fence, the
		// metadata region is fenced by no ordinary commit: deferring this
		// fence would let a crash resurrect the manifest after touched
		// roots had durably moved on, and the replay would roll them back.
		meta.WriteU64(manifestBase, manifestStatusIdle)
		meta.Clwb(manifestBase)
		meta.Sfence()
		ss.sh.mu.Unlock()
	}

	for _, p := range preps {
		p.finish()
	}
}
