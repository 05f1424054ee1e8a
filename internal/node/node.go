// Package node assembles a complete ZugChain replica: the MVB reader feeds
// parsed, filtered signal records into the communication layer (Algorithm
// 1), which orders them through PBFT; every executed slot that logs a
// request is sealed into its own block, a checkpoint every K slots certifies
// the chain, and the export server serves data centers and state transfers
// — the full pipeline of Fig 3. The communication layer is one front end;
// the baseline's client protocol is the other (NewWithFrontEnd), so both
// systems run the same replica below it.
package node

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"zugchain/internal/blockchain"
	"zugchain/internal/clock"
	"zugchain/internal/core"
	"zugchain/internal/crypto"
	"zugchain/internal/export"
	"zugchain/internal/metrics"
	"zugchain/internal/mvb"
	"zugchain/internal/obsv"
	"zugchain/internal/pbft"
	"zugchain/internal/signal"
	"zugchain/internal/transport"
	"zugchain/internal/wal"
)

// Wire tag ranges carved out of the shared transport by the mux.
const (
	pbftTagLo, pbftTagHi     = 0x10, 0x2f
	coreTagLo, coreTagHi     = 0x30, 0x3f
	exportTagLo, exportTagHi = 0x40, 0x4f
)

// FrontEnd is the part of a replica that turns bus records into requests
// and decides into LOGs: Algorithm 1's core.Layer for ZugChain, the client
// protocol for the baseline. Everything below it — engine, runner, verify
// pool, WAL, chain, export server and state transfer — is shared.
type FrontEnd interface {
	OnBusRecord(src int, payload []byte)
	OnDecide(seq uint64, req pbft.Request)
	OnPrePrepared(payloadDigest crypto.Digest)
	OnNewPrimary(view uint64, primary crypto.NodeID)
	// Payload is the pbft.PayloadSource proposals by reference rebuild from.
	Payload(d crypto.Digest) ([]byte, bool)
	// RestoreWindow marks records the chain already holds (recovered or
	// transferred) as ordered and closes the open requests they settle.
	RestoreWindow(entries []core.WindowEntry)
	// WindowSnapshot appends to dst the window entries at or below maxSeq
	// that a WAL rotation must carry (see core.Layer.WindowSnapshot).
	WindowSnapshot(dst []core.WindowEntry, maxSeq uint64) []core.WindowEntry
	OpenRequests() int
	Counters() *metrics.Counters
	Batches() *metrics.BatchCounters
	Latency() *metrics.Latency
	Close()
}

// FrontEndEnv is what a front end is built from: the node's configuration
// (defaults applied), its accelerated keys, the runner to propose to and
// suspect through, the mux to carve its wire channel from, and the recorder
// its LOG up-calls append to.
type FrontEndEnv struct {
	Config   Config
	Key      *crypto.KeyPair
	Registry *crypto.Registry
	BFT      core.BFT
	Mux      *transport.Mux
	Clock    clock.Clock
	Recorder core.Recorder
	Pool     *crypto.VerifyPool
	Tracer   *obsv.Tracer
}

// newLayer is ZugChain's front end: the communication layer of Algorithm 1.
func newLayer(env FrontEndEnv) FrontEnd {
	cfg := env.Config
	return core.New(core.Config{
		ID:               cfg.ID,
		SoftTimeout:      cfg.SoftTimeout,
		HardTimeout:      cfg.HardTimeout,
		MaxOpenPerOrigin: cfg.MaxOpenPerOrigin,
		WindowSeqs:       cfg.WindowSeqs,
		VerifyPool:       env.Pool,
		MaxBatch:         cfg.MaxBatch,
		MaxBatchDelay:    cfg.MaxBatchDelay,
		Tracer:           env.Tracer,
	}, env.Key, env.Registry, env.BFT, env.Mux.Channel(coreTagLo, coreTagHi), env.Clock, env.Recorder)
}

// compactionPrefix marks the on-chain joint agreement to compact blocks to
// headers (§III-D error (v)).
const compactionPrefix = "zc-compact:"

// Config parameterizes a ZugChain node.
type Config struct {
	// ID is this replica.
	ID crypto.NodeID
	// Replicas lists all replica IDs in ascending order.
	Replicas []crypto.NodeID
	// CheckpointInterval is the number of agreement slots per checkpoint
	// (the paper evaluates with 10). Blocks are sealed per slot.
	CheckpointInterval uint64
	// DataDir, when set, persists the blockchain to disk.
	DataDir string
	// SoftTimeout/HardTimeout drive Algorithm 1 (250 ms each in §V).
	SoftTimeout time.Duration
	HardTimeout time.Duration
	// ViewTimeout is the PBFT view-change progress timeout.
	ViewTimeout time.Duration
	// DeleteQuorum is the number of data centers whose signed deletes
	// authorize pruning.
	DeleteQuorum int
	// DataCenters lists authorized data-center IDs.
	DataCenters []crypto.NodeID
	// WindowSeqs sizes the duplicate-filter window (see core.Config).
	WindowSeqs uint64
	// MaxOpenPerOrigin bounds open broadcast requests per node.
	MaxOpenPerOrigin int
	// MaxBatch caps how many records the primary coalesces into one
	// batched proposal; 1 (the default) disables batching. See
	// core.Config.MaxBatch.
	MaxBatch int
	// MaxBatchDelay bounds the wait before a partial batch is flushed.
	MaxBatchDelay time.Duration
	// WALDir, when set, persists PBFT protocol state (views, phase votes,
	// checkpoint proofs, the dedup window) to a write-ahead log so a
	// crashed replica restarts without equivocating. Defaults to
	// DataDir/wal when DataDir is set.
	WALDir string
	// DisableWAL turns the write-ahead log off even when DataDir is set
	// (for simulations that trade durability for speed).
	DisableWAL bool
	// StateRetryInterval is the base backoff between state-transfer
	// retry rounds (doubling up to 16x); default 100ms.
	StateRetryInterval time.Duration
	// StateRetryRounds bounds how many consecutive no-progress retry
	// rounds the fetcher attempts before parking (a later divergence
	// event re-arms it); default 10.
	StateRetryRounds int
	// VerifyCacheSize bounds the verified-signature cache: 0 selects
	// crypto.DefaultVerifyCacheSize, negative disables the cache.
	VerifyCacheSize int
	// DisableBatchVerify turns off the Ed25519 multi-scalar batch
	// verification of batched proposals' inner signatures, falling back to
	// sequential scalar verifies (for debugging and A/B measurement).
	DisableBatchVerify bool
	// TraceRing is the number of completed record lifecycle traces retained
	// for /tracez (0 selects obsv.DefaultTraceRing).
	TraceRing int
	// TraceSlow, when positive, marks and logs records whose
	// ingest-to-execute latency meets the threshold.
	TraceSlow time.Duration
	// DisableTrace turns per-record lifecycle tracing off entirely (for
	// overhead A/B measurement; metrics and the event journal stay on).
	DisableTrace bool
}

// walDir returns the effective WAL directory, empty when disabled.
func (c *Config) walDir() string {
	if c.DisableWAL {
		return ""
	}
	if c.WALDir != "" {
		return c.WALDir
	}
	if c.DataDir != "" {
		return filepath.Join(c.DataDir, "wal")
	}
	return ""
}

func (c *Config) applyDefaults() {
	if c.CheckpointInterval == 0 {
		c.CheckpointInterval = pbft.DefaultCheckpointInterval
	}
	if c.SoftTimeout <= 0 {
		c.SoftTimeout = 250 * time.Millisecond
	}
	if c.HardTimeout <= 0 {
		c.HardTimeout = 250 * time.Millisecond
	}
	if c.ViewTimeout <= 0 {
		c.ViewTimeout = 500 * time.Millisecond
	}
	if c.DeleteQuorum <= 0 {
		c.DeleteQuorum = 1
	}
	if c.StateRetryInterval <= 0 {
		c.StateRetryInterval = 100 * time.Millisecond
	}
	if c.StateRetryRounds <= 0 {
		c.StateRetryRounds = 10
	}
}

// Node is one replica, ZugChain's or the baseline's.
type Node struct {
	cfg Config
	reg *crypto.Registry
	clk clock.Clock

	mux    *transport.Mux
	pool   *crypto.VerifyPool
	engine *pbft.Engine
	runner *pbft.Runner
	front  FrontEnd
	store  *blockchain.Store
	srv    *export.Server
	wlog   *wal.Log
	obs    *obsv.Observer

	recovery RecoveryInfo
	rotation rotation

	mu       sync.Mutex
	policies map[signal.Kind]signal.FilterPolicy
	sources  map[int]*busSource // per input source (§III-C)
	builder  *blockchain.Builder

	// State-transfer retry machinery (see fetchLoop): fetchTarget is the
	// sequence number the chain head's LastSeq must reach; fetchActive
	// whether a retry loop is running.
	fetchMu     sync.Mutex
	fetchTarget uint64
	fetchActive bool

	quit    chan struct{}
	busWG   sync.WaitGroup
	stopped sync.Once
}

// New assembles a ZugChain node on top of the given transport (the node
// muxes it into protocol channels internally).
func New(cfg Config, kp *crypto.KeyPair, reg *crypto.Registry, tr transport.Transport, clk clock.Clock) (*Node, error) {
	return NewWithFrontEnd(cfg, kp, reg, tr, clk, newLayer, nil)
}

// NewWithFrontEnd assembles a node whose front end newFront builds. Every
// bus frame passes a per-source change-detection filter with the given
// policies before it reaches the front end: nil selects
// signal.DefaultPolicies, an empty map logs every signal.
func NewWithFrontEnd(cfg Config, kp *crypto.KeyPair, reg *crypto.Registry, tr transport.Transport, clk clock.Clock,
	newFront func(FrontEndEnv) FrontEnd, policies map[signal.Kind]signal.FilterPolicy) (*Node, error) {
	cfg.applyDefaults()

	// Crypto acceleration (DESIGN.md §3.11): every verification this node
	// performs goes through an accelerated registry view — a per-node
	// verified-signature cache plus batch verification for batched
	// proposals — and the node's own signatures seed the cache at Sign
	// time. The view shares the caller's key set, so co-located nodes
	// (tests, simulations) still see one keyring while caching
	// independently, as separate machines would.
	cc := &metrics.CryptoCounters{}
	var vcache *crypto.VerifyCache
	if cfg.VerifyCacheSize >= 0 {
		vcache = crypto.NewVerifyCache(cfg.VerifyCacheSize, cc)
	}
	reg = reg.Accelerated(vcache, !cfg.DisableBatchVerify, cc)
	kp = kp.WithCache(vcache)

	store, err := blockchain.NewStore(cfg.DataDir)
	if err != nil {
		return nil, fmt.Errorf("node: open store: %w", err)
	}

	n := &Node{
		cfg:      cfg,
		reg:      reg,
		clk:      clk,
		store:    store,
		policies: policies,
		sources:  make(map[int]*busSource),
		quit:     make(chan struct{}),
		obs: obsv.NewObserver(obsv.Options{
			TraceRing:    cfg.TraceRing,
			TraceSlow:    cfg.TraceSlow,
			DisableTrace: cfg.DisableTrace,
		}),
	}
	n.recovery.StoreReport = store.Recovery()
	n.builder = blockchain.NewSlotBuilder(store.Head(), cfg.CheckpointInterval)

	var walRecs []wal.Record
	if dir := cfg.walDir(); dir != "" {
		n.wlog, walRecs, n.recovery.WALReport, err = wal.Open(dir)
		if err != nil {
			_ = store.Close()
			return nil, fmt.Errorf("node: open wal: %w", err)
		}
	}

	n.mux = transport.NewMux(tr)
	pbftChan := n.mux.Channel(pbftTagLo, pbftTagHi)
	exportChan := n.mux.Channel(exportTagLo, exportTagHi)

	engine, err := pbft.NewEngine(pbft.Config{
		ID:                 cfg.ID,
		Replicas:           cfg.Replicas,
		CheckpointInterval: cfg.CheckpointInterval,
	}, kp, reg)
	if err != nil {
		if n.wlog != nil {
			_ = n.wlog.Close()
		}
		_ = store.Close()
		return nil, err
	}
	n.engine = engine
	windowEntries := n.restoreFromWAL(engine, walRecs)

	// One verification pipeline per node, shared by the PBFT runner and
	// the front end: all inbound Ed25519 checks run on its workers,
	// keeping both the consensus event loop and the transport delivery
	// goroutines free of crypto (Fig 7's dominant CPU cost).
	n.pool = crypto.NewVerifyPool(0)
	runnerCfg := pbft.RunnerConfig{
		BaseViewTimeout: cfg.ViewTimeout,
		VerifyPool:      n.pool,
		Tracer:          n.obs.Tracer,
		Journal:         n.obs.Journal,
	}
	if n.wlog != nil {
		runnerCfg.Persister = walPersister{n.wlog}
	}
	n.runner = pbft.NewRunner(engine, pbftChan, clk, (*pbftApp)(n), runnerCfg)

	n.front = newFront(FrontEndEnv{
		Config:   cfg,
		Key:      kp,
		Registry: reg,
		BFT:      n.runner,
		Mux:      n.mux,
		Clock:    clk,
		Recorder: (*chainRecorder)(n),
		Pool:     n.pool,
		Tracer:   n.obs.Tracer,
	})

	if len(windowEntries) > 0 {
		n.front.RestoreWindow(windowEntries)
		n.recovery.WindowRestored = len(windowEntries)
	}

	n.srv = export.NewServer(export.ServerConfig{
		ID:           cfg.ID,
		DeleteQuorum: cfg.DeleteQuorum,
		DataCenters:  cfg.DataCenters,
	}, kp, reg, store, exportChan)
	n.srv.SetStateReplyHandler(n.onStateReply)

	// Every counter family the node owns registers its Metrics method into
	// the observer's registry: one /metrics scrape sees the whole pipeline.
	r := n.obs.Registry
	r.Register("core", n.front.Counters().Metrics)
	r.Register("batch", n.front.Batches().Metrics)
	r.Register("pool", n.pool.Counters().Metrics)
	r.Register("crypto", cc.Metrics)
	if n.wlog != nil {
		r.Register("wal", n.wlog.Counters().Metrics)
	}
	r.Register("store", store.GroupCommits().Metrics)
	if ns, ok := tr.(transport.NetStats); ok {
		if nc := ns.NetCounters(); nc != nil {
			r.Register("net", nc.Metrics)
		}
	}
	r.Register("chain", func() []metrics.Metric {
		return []metrics.Metric{
			metrics.Gauge("zugchain_chain_height", "Blockchain head index", float64(n.store.HeadIndex())),
			metrics.Gauge("zugchain_chain_base", "Oldest retained full block", float64(n.store.Base())),
			metrics.Gauge("zugchain_chain_open", "Open requests in the queue R", float64(n.front.OpenRequests())),
		}
	})

	return n, nil
}

// Start launches the consensus runner and, when recovery found the quorum
// certified a checkpoint beyond the local chain, the state-transfer fetcher
// that rejoins via the existing transfer path.
func (n *Node) Start() {
	n.runner.Start()
	if t := n.recovery.PendingTransfer; t > n.store.Head().LastSeq {
		n.ensureStateFetch(t)
	}
}

// Stop shuts down the node. The runner stops before the front end closes: a
// slot executed after the front end closed would log none of its records yet
// still seal its block, and that durable block would diverge from the
// quorum's chain after a restart. The verify pool closes last: in-flight
// verification tasks may still try to enqueue into the runner or front end,
// whose closed-checks make that a safe no-op. The store and WAL close after
// the bus drains, once nothing can append anymore.
func (n *Node) Stop() {
	n.stopped.Do(func() {
		close(n.quit)
		n.runner.Stop()
		n.front.Close()
		n.pool.Close()
		n.busWG.Wait()
		if n.wlog != nil {
			_ = n.wlog.Close()
		}
		_ = n.store.Close()
	})
}

// Store exposes the node's blockchain.
func (n *Node) Store() *blockchain.Store { return n.store }

// FrontEnd exposes the front end (metrics, inspection, direct record
// injection).
func (n *Node) FrontEnd() FrontEnd { return n.front }

// Runner exposes the PBFT runner.
func (n *Node) Runner() *pbft.Runner { return n.runner }

// Obs exposes the node's observability state: the metrics registry every
// counter family registered into, the record lifecycle tracer (nil when
// disabled), and the consensus event journal. Serve it with obsv.Serve.
func (n *Node) Obs() *obsv.Observer { return n.obs }

// HandleFrame processes one bus frame through the verified parse/filter
// pipeline and submits the surviving signals as one consolidated request.
// Frames whose signals are all filtered produce no request, mirroring JRU
// change-detection behaviour.
func (n *Node) HandleFrame(frame mvb.Frame) {
	n.HandleFrameSource(0, frame)
}

// HandleFrameSource is HandleFrame for a specific input source index. Nodes
// connected to several (partially synchronous) buses keep one logical queue
// per link (§III-C "Multiple Input Sources"); per-source change-detection
// state keeps the filters independent.
func (n *Node) HandleFrameSource(src int, frame mvb.Frame) {
	s := n.busSource(src)
	s.mu.Lock()
	s.signals, _ = mvb.AppendSignals(s.signals[:0], frame) // unparseable ports are skipped, rest logged
	rec := signal.Record{Cycle: frame.Cycle, Signals: s.filter.Apply(s.signals)}
	var payload []byte
	if len(rec.Signals) > 0 {
		payload = rec.Marshal()
	}
	s.mu.Unlock()
	if payload != nil {
		n.front.OnBusRecord(src, payload)
	}
}

// busSource is one input source's parse state: its change-detection filter
// and the slice each of its frames is parsed into, so that a frame costs
// one allocation, the record encoding the front end keeps.
type busSource struct {
	mu      sync.Mutex
	filter  *signal.Filter
	signals []signal.Signal
}

// busSource returns input source src's parse state, creating it on first
// use.
func (n *Node) busSource(src int) *busSource {
	n.mu.Lock()
	defer n.mu.Unlock()
	s, ok := n.sources[src]
	if !ok {
		s = &busSource{filter: signal.NewFilter(n.policies)}
		n.sources[src] = s
	}
	return s
}

// RunBus consumes frames from reader (input source 0) until ctx is
// cancelled.
func (n *Node) RunBus(ctx context.Context, reader *mvb.Reader) {
	n.RunBusSource(ctx, 0, reader)
}

// RunBusSource consumes frames from one of several attached buses.
func (n *Node) RunBusSource(ctx context.Context, src int, reader *mvb.Reader) {
	n.busWG.Add(1)
	go func() {
		defer n.busWG.Done()
		for {
			select {
			case <-ctx.Done():
				return
			case frame := <-reader.C():
				n.HandleFrameSource(src, frame)
			}
		}
	}()
}

// ProposeCompaction submits the on-chain joint agreement to compact blocks
// up to `through` to headers (§III-D error (v)). Once ordered, every replica
// executes the compaction deterministically when the marker is logged.
func (n *Node) ProposeCompaction(through uint64) {
	payload := fmt.Sprintf("%s%d", compactionPrefix, through)
	n.front.OnBusRecord(0, []byte(payload))
}

// chainRecorder adapts the node to core.Recorder: the LOG up-call of
// Table I appends the decided request to its slot's pending block.
type chainRecorder Node

// Log implements core.Recorder.
func (r *chainRecorder) Log(seq uint64, origin crypto.NodeID, payload, sig []byte) {
	n := (*Node)(r)
	if through, ok := parseCompaction(payload); ok {
		// Joint agreement: compact everything up to `through` (never the
		// head) to headers. The marker itself is also logged below.
		_ = n.store.CompactToHeaders(through)
	}
	n.mu.Lock()
	n.builder.Add(blockchain.Entry{
		Seq:     seq,
		Origin:  origin,
		Payload: payload,
		Sig:     sig,
	})
	n.mu.Unlock()
}

// parseCompaction recognizes a compaction marker. Every logged record
// passes through it, so the prefix is checked on the bytes before anything
// is converted.
func parseCompaction(payload []byte) (uint64, bool) {
	if !bytes.HasPrefix(payload, []byte(compactionPrefix)) {
		return 0, false
	}
	v, err := strconv.ParseUint(string(payload[len(compactionPrefix):]), 10, 64)
	if err != nil {
		return 0, false
	}
	return v, true
}

// pbftApp adapts the node to pbft.Application.
type pbftApp Node

// Deliver implements pbft.Application: hand the DECIDE to the front end,
// which decides what to log, then seal the slot's block. The block
// is final once durable on a quorum: it holds only committed slots.
func (a *pbftApp) Deliver(seq uint64, req pbft.Request) {
	n := (*Node)(a)
	n.front.OnDecide(seq, req)
	if err := n.sealSlot(seq); errors.Is(err, blockchain.ErrChainGap) {
		n.ensureStateFetch(seq)
	}
}

// CheckpointDigest implements pbft.Application: the checkpoint digest is
// the hash of the block ending at seq — the slot's own block, or the empty
// block a checkpoint slot that logged nothing seals.
func (a *pbftApp) CheckpointDigest(seq uint64) crypto.Digest {
	n := (*Node)(a)
	err := n.sealSlot(seq)
	if errors.Is(err, blockchain.ErrChainGap) {
		// The executed watermark jumped past slots this replica never
		// delivered (stable-checkpoint catch-up) and the transfer filling
		// the gap has not landed: the slot's entries stay pending, and the
		// checkpoint exchange drives state transfer until the chain
		// catches up. The divergent digest mixes in this replica's ID:
		// correlated lagging (e.g. simultaneous crash-restarts) must not
		// let 2f+1 matching gap digests certify a stable checkpoint on a
		// phantom state that corresponds to no block.
		n.ensureStateFetch(seq)
		return crypto.Hash([]byte(fmt.Sprintf("gap-%d-%d", seq, n.cfg.ID)))
	}
	if err == nil {
		// A state transfer may have installed the block before local
		// execution got here, so look it up in the chain.
		if h, err := n.store.HeaderAtSeq(seq); err == nil && h.LastSeq == seq {
			return h.Hash()
		}
	}
	// Appending a locally built block to the local head can only fail
	// after state corruption; the checkpoint exchange will detect the
	// divergence (StateTransferNeeded follows). Per-replica digest for the
	// same reason as the gap case above.
	return crypto.Hash([]byte(fmt.Sprintf("corrupt-%d-%d", seq, n.cfg.ID)))
}

// sealSlot seals the blocks executing slot seq completes and appends them
// to the store; see blockchain.Builder.SealSlot.
func (n *Node) sealSlot(seq uint64) error {
	n.mu.Lock()
	blocks, err := n.builder.SealSlot(seq)
	n.mu.Unlock()
	if err != nil || len(blocks) == 0 {
		return err
	}
	if err := n.store.AppendBatch(blocks); err != nil {
		return err
	}
	// The blocks are durable: stamp fsync on every completed trace at or
	// below this slot.
	n.obs.Tracer.Fsync(seq)
	return nil
}

// OnPrePrepared implements pbft.PrePrepareObserver: relay the primary's
// accepted proposal to the front end (core downgrades the soft timeout).
func (a *pbftApp) OnPrePrepared(seq uint64, payloadDigest crypto.Digest) {
	(*Node)(a).front.OnPrePrepared(payloadDigest)
}

// Payload implements pbft.PayloadSource: the payloads a backup already read
// from the bus sit in its front end.
func (a *pbftApp) Payload(d crypto.Digest) ([]byte, bool) {
	return (*Node)(a).front.Payload(d)
}

// StableCheckpoint implements pbft.Application. Besides notifying the
// export server, a stable checkpoint is the WAL's truncation point: every
// pinned vote at or below it is re-certified by the quorum's signatures, so
// the log rotates down to a compact snapshot (view state, the proof itself,
// and the dedup-window entries the chain cannot re-derive).
func (a *pbftApp) StableCheckpoint(proof pbft.CheckpointProof) {
	n := (*Node)(a)
	n.rotateWAL(proof)
	n.srv.OnStableCheckpoint(proof)
}

// NewPrimary implements pbft.Application.
func (a *pbftApp) NewPrimary(view uint64, primary crypto.NodeID) {
	(*Node)(a).front.OnNewPrimary(view, primary)
}

// StateTransferNeeded implements pbft.Application: fetch the authoritative
// blocks from peers (export error (ii)). The actual requests are issued by
// the retrying fetcher — a single fire-and-forget round over a drop-oldest
// transport would strand this replica until the next divergence event if
// one frame were lost.
func (a *pbftApp) StateTransferNeeded(seq uint64, digest crypto.Digest) {
	n := (*Node)(a)
	n.obs.Journal.Record(obsv.Event{
		Kind: obsv.EventStateTransferNeeded, Seq: seq, Node: n.cfg.ID,
		Detail: fmt.Sprintf("head=%d head-seq=%d", n.store.HeadIndex(), n.store.Head().LastSeq),
	})
	n.ensureStateFetch(seq)
	_ = digest // the installed blocks are verified by hash linkage
}

// onStateReply installs transferred blocks, verifying linkage. The
// contiguous run extending the local head goes to the store as one batch,
// so the whole transfer costs a single group commit instead of one fsync
// per block.
func (n *Node) onStateReply(reply *export.StateReply) {
	next := n.store.HeadIndex() + 1
	var run []*blockchain.Block
	for _, b := range reply.Blocks {
		if b.Index == next+uint64(len(run)) {
			run = append(run, b)
		}
	}
	if len(run) == 0 {
		return
	}
	if err := n.store.AppendBatch(run); err != nil {
		return
	}
	n.obs.Journal.Record(obsv.Event{
		Kind: obsv.EventStateTransfer, Seq: run[len(run)-1].Header.LastSeq, Node: n.cfg.ID,
		Detail: fmt.Sprintf("installed-blocks=%d head=%d", len(run), n.store.HeadIndex()),
	})

	// The transfer runs while consensus keeps deciding: slots beyond the
	// transferred range may already sit in the builder and survive the
	// rebase (ResetTo keeps them pending), and the installed entries must
	// enter the dedup window — they were logged by the quorum, so deciding
	// their payloads again (e.g. a hard-timeout rebroadcast racing the
	// transfer) must filter, not double-LOG. A builder that sealed past the
	// transferred head stays where it is.
	head := n.store.Head()
	n.mu.Lock()
	if head.Index >= n.builder.NextIndex() {
		n.builder.ResetTo(head)
	}
	n.mu.Unlock()

	var entries []core.WindowEntry
	for _, b := range run {
		for _, e := range b.Entries {
			entries = append(entries, core.WindowEntry{Digest: crypto.Hash(e.Payload), Seq: e.Seq})
		}
	}
	n.front.RestoreWindow(entries)
}
