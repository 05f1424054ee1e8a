package main

import (
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"zugchain/internal/blockchain"
	"zugchain/internal/signal"
)

// The train load: one record per bus cycle (the paper's fastest Fig 6
// cycle), of about 1 KB (Fig 6).
const (
	busCycle     = 32 * time.Millisecond
	trainPayload = 1024
	// trainDrain bounds how long after the window the run waits for the
	// window's records; the rest count as failed.
	trainDrain = 3 * time.Second
)

// recordRun is the mutable state of one cluster's run.
type recordRun struct {
	seed int64
	c    *cluster
	det  *quorumDetector

	mu      sync.Mutex
	due     []time.Time // by record id: due time
	want    [][]byte    // by record id: the payload every chain must carry
	counted []bool      // inside the timed window
	recAt   []time.Time // recorded on a quorum; zero while not
	recBlk  []uint64    // the block that recorded it
	pending int         // counted records not yet recorded
	blockAt []blockMark // blocks recorded on a quorum, in order
	slots   uint64      // PBFT slots those blocks cover
	lastSeq uint64
	err     error

	// filter is the benchmark's mirror of the replicas' signal filters:
	// every replica sees every frame, so all of them hold its state.
	filter *signal.Filter

	// Generator-side timings of the calls into the replicas (traced runs).
	feedNs, feedN   atomic.Uint64
	parseNs, parseN atomic.Uint64
	lateMs          []float64

	stop chan struct{}
	done chan struct{}
}

// newRecordRun builds a cluster and warms it up until its first block is
// recorded on a quorum: the set-up the benchmark times.
func newRecordRun(cfg clusterConfig) (*recordRun, error) {
	if err := os.MkdirAll(cfg.dataRoot, 0o755); err != nil {
		return nil, err
	}
	c, err := newCluster(cfg)
	if err != nil {
		return nil, err
	}
	r := &recordRun{
		seed:   cfg.seed,
		c:      c,
		filter: signal.NewFilter(nil),
		stop:   make(chan struct{}),
		done:   make(chan struct{}),
	}
	r.det = newQuorumDetector(numReplicas, quorumSize, r.onRecorded)
	go r.pollLoop()
	deadline := time.Now().Add(20 * time.Second)
	start := time.Now()
	for k := 0; r.recordedBlocks() == 0; k++ {
		if time.Now().After(deadline) {
			r.close()
			return nil, fmt.Errorf("warm-up recorded no block within 20s")
		}
		sleepUntil(start.Add(time.Duration(k) * busCycle))
		if err := r.feed(time.Now(), false); err != nil {
			r.close()
			return nil, err
		}
	}
	return r, nil
}

func sleepUntil(t time.Time) {
	if d := time.Until(t); d > 0 {
		time.Sleep(d)
	}
}

func (r *recordRun) recordedBlocks() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.blockAt)
}

// pollLoop drives the quorum detector every millisecond until close.
func (r *recordRun) pollLoop() {
	defer close(r.done)
	t := time.NewTicker(pollInterval)
	defer t.Stop()
	for {
		select {
		case <-r.stop:
			return
		case <-t.C:
		}
		now := time.Now()
		r.mu.Lock()
		r.det.poll(r.c.srcs, now)
		if r.det.err != nil {
			r.fail(r.det.err)
		}
		r.mu.Unlock()
	}
}

// onRecorded checks and stamps every record of a block that reached a
// quorum of stores. Called with r.mu held (from poll).
func (r *recordRun) onRecorded(b *blockchain.Block, at time.Time) {
	r.blockAt = append(r.blockAt, blockMark{at: at, records: len(b.Entries)})
	if r.lastSeq > 0 {
		r.slots += b.LastSeq - r.lastSeq
	}
	r.lastSeq = b.LastSeq
	for _, e := range b.Entries {
		id, ok := busIdent(e.Payload)
		if !ok || id >= uint64(len(r.due)) {
			r.fail(fmt.Errorf("block %d holds a record that was never submitted", b.Index))
			continue
		}
		if string(r.want[id]) != string(e.Payload) {
			r.fail(fmt.Errorf("record %d recorded with other bytes than submitted", id))
		}
		if !r.recAt[id].IsZero() {
			r.fail(fmt.Errorf("record %d recorded twice: in block %d, again at seq %d (origin %v) in block %d",
				id, r.recBlk[id], e.Seq, e.Origin, b.Index))
			continue
		}
		r.recAt[id] = at
		r.recBlk[id] = b.Index
		if r.counted[id] {
			r.pending--
		}
	}
}

func (r *recordRun) fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

// feed submits the next record, due at due, to every replica through
// node.HandleFrame (MVB parse, signal filter, Algorithm 1).
func (r *recordRun) feed(due time.Time, counted bool) error {
	timed := r.c.cfg.traced
	id := uint64(len(r.due)) // only the generator adds records
	frame := busFrame(r.seed, id, trainPayload)
	var t0 time.Time
	if timed {
		t0 = time.Now()
	}
	want, err := busRecord(frame, r.filter)
	if err != nil {
		return err
	}
	if timed {
		r.parseNs.Add(uint64(time.Since(t0)))
		r.parseN.Add(1)
	}
	r.mu.Lock()
	r.due = append(r.due, due)
	r.want = append(r.want, want)
	r.counted = append(r.counted, counted)
	r.recAt = append(r.recAt, time.Time{})
	r.recBlk = append(r.recBlk, 0)
	if counted {
		r.pending++
	}
	r.mu.Unlock()
	for _, n := range r.c.nodes {
		if timed {
			t0 = time.Now()
		}
		n.HandleFrame(frame)
		if timed {
			r.feedNs.Add(uint64(time.Since(t0)))
			r.feedN.Add(1)
		}
	}
	return nil
}

// window is what one timed window measured.
type window struct {
	start, end time.Time
	before     snapshot
	after      snapshot
}

// measure runs the timed window of the given length, then keeps the load
// on (uncounted) until the window's records are recorded or the drain
// deadline passes.
func (r *recordRun) measure(length time.Duration) (window, error) {
	var w window
	w.start = time.Now()
	w.before = r.snap()
	end := w.start.Add(length)
	deadline := end.Add(trainDrain)
	ended := false
	for k := 0; ; k++ {
		due := w.start.Add(time.Duration(k) * busCycle)
		sleepUntil(due)
		now := time.Now()
		if !ended && !due.Before(end) {
			w.end, w.after, ended = now, r.snap(), true
		}
		if ended && (r.pendingCount() == 0 || now.After(deadline)) {
			break
		}
		if !ended {
			r.lateMs = append(r.lateMs, float64(now.Sub(due))/1e6)
		}
		if err := r.feed(due, !ended); err != nil {
			return w, err
		}
	}
	return w, r.firstErr()
}

func (r *recordRun) pendingCount() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.pending
}

func (r *recordRun) firstErr() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.err
}

// close stops the detector and tears the cluster down.
func (r *recordRun) close() {
	select {
	case <-r.stop:
	default:
		close(r.stop)
	}
	<-r.done
	r.c.close()
}

// check is the end-of-run correctness gate over every replica's chain.
func (r *recordRun) check() error {
	if err := r.firstErr(); err != nil {
		return err
	}
	return r.c.checkChains(busIdent, func(id uint64) []byte {
		r.mu.Lock()
		defer r.mu.Unlock()
		if id >= uint64(len(r.want)) {
			return nil
		}
		return r.want[id]
	})
}

// latencies returns the latencies in ms of the counted records, how many
// there were, and how many of them were never recorded.
func (r *recordRun) latencies() (lat []float64, attempted, failed int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for id, c := range r.counted {
		if !c {
			continue
		}
		attempted++
		if r.recAt[id].IsZero() {
			failed++
			continue
		}
		lat = append(lat, float64(r.recAt[id].Sub(r.due[id]))/1e6)
	}
	return lat, attempted, failed
}

// blockMark is one block reaching a quorum of stores.
type blockMark struct {
	at      time.Time
	records int
}

// rate is records recorded per second between the first and the last block
// recorded inside the window: records arrive a block at a time, so counting
// from block to block keeps a block straddling the window's edge from
// moving the figure by a whole block.
func (r *recordRun) rate(w window) float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	var first, last time.Time
	n := 0
	for _, b := range r.blockAt {
		if b.at.Before(w.start) || !b.at.Before(w.end) {
			continue
		}
		if first.IsZero() {
			first = b.at
			continue
		}
		last = b.at
		n += b.records
	}
	if last.IsZero() {
		return 0
	}
	return float64(n) / last.Sub(first).Seconds()
}

// recordedIn counts records recorded inside [from, to).
func (r *recordRun) recordedIn(from, to time.Time) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := 0
	for _, t := range r.recAt {
		if !t.IsZero() && !t.Before(from) && t.Before(to) {
			n++
		}
	}
	return n
}

// pollInterval is the quorum detector's period, the resolution of every
// recorded-latency sample.
const pollInterval = time.Millisecond

// perSecond counts records recorded in each whole second of the window.
func (r *recordRun) perSecond(w window) []int {
	var out []int
	for t := w.start; !t.Add(time.Second).After(w.end); t = t.Add(time.Second) {
		out = append(out, r.recordedIn(t, t.Add(time.Second)))
	}
	return out
}
