package main

import (
	"os"
	"path/filepath"
	"runtime/metrics"
	"sync/atomic"
	"syscall"
	"time"

	"zugchain/internal/blockchain"
	"zugchain/internal/crypto"
	"zugchain/internal/wal"
	"zugchain/internal/wire"
)

// snapshot is the process and program state at one instant; windows are
// differences of two.
type snapshot struct {
	at         time.Time
	cpu        time.Duration
	allocBytes uint64
	gcCycles   uint64
	msgs       [numClasses]uint64
	bytes      [numClasses]uint64
	calls      [numClasses]uint64
	sendNs     uint64
	sendN      uint64
	deliverNs  uint64
	deliverN   uint64
	timers     uint64
	totals     map[string]float64 // the replicas' registry counters
}

var runtimeSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/gc/cycles/total:gc-cycles"},
}

func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func takeSnapshot(tap *netTap, timers uint64, totals map[string]float64) snapshot {
	s := snapshot{at: time.Now(), cpu: processCPU(), timers: timers, totals: totals}
	samples := append([]metrics.Sample(nil), runtimeSamples...)
	metrics.Read(samples)
	s.allocBytes = samples[0].Value.Uint64()
	s.gcCycles = samples[1].Value.Uint64()
	for i := range tap.msgs {
		s.msgs[i] = tap.msgs[i].Load()
		s.bytes[i] = tap.bytes[i].Load()
		s.calls[i] = tap.calls[i].Load()
	}
	s.sendNs, s.sendN = tap.sendNs.Load(), tap.sendN.Load()
	s.deliverNs, s.deliverN = tap.deliverNs.Load(), tap.deliverN.Load()
	return s
}

func (r *recordRun) snap() snapshot {
	return takeSnapshot(r.c.tap, r.c.timers.Load(), r.c.totals())
}

// delta returns after-before of a registry counter.
func delta(before, after snapshot, name string) float64 {
	return after.totals[name] - before.totals[name]
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

func meanUs(ns, n uint64) float64 { return ratio(float64(ns)/1e3, float64(n)) }

// costs are the cost metrics of a window, per operation. CPU per op is
// reported per layer (go.cpu_ms_per_op), not end to end: on the 2-core
// measurement host it varied up to 2x within minutes with the host's load
// while every latency stayed within 2 %.
func costs(before, after snapshot, ops float64, m map[string]float64) {
	m["cpu_ms_per_op"] = ratio(float64(after.cpu-before.cpu)/1e6, ops)
	m["alloc_kb_per_op"] = ratio(float64(after.allocBytes-before.allocBytes)/1024, ops)
	var b uint64
	for i := range after.bytes {
		b += after.bytes[i] - before.bytes[i]
	}
	m["net_bytes_per_op"] = ratio(float64(b), ops)
}

// sharedLayers fills the transport, wire and Go runtime rows every
// workload reports.
func sharedLayers(tap *netTap, before, after snapshot, ops float64, heapPeak uint64, m map[string]float64) {
	for i, name := range classNames {
		m["transport.msgs_per_op."+name] = ratio(float64(after.msgs[i]-before.msgs[i]), ops)
		m["transport.bytes_per_op."+name] = ratio(float64(after.bytes[i]-before.bytes[i]), ops)
	}
	m["transport.send_us"] = meanUs(after.sendNs-before.sendNs, after.sendN-before.sendN)
	m["transport.deliver_us"] = meanUs(after.deliverNs-before.deliverNs, after.deliverN-before.deliverN)
	m["transport.drops"] = delta(before, after, "zugchain_net_drops_total")
	m["transport.frames_per_write"] = ratio(delta(before, after, "zugchain_net_frames_total"),
		delta(before, after, "zugchain_net_write_ops_total"))
	m["go.cpu_ms_per_op"] = ratio(float64(after.cpu-before.cpu)/1e6, ops)
	m["go.gc_per_1k_ops"] = ratio(float64(after.gcCycles-before.gcCycles)*1000, ops)
	m["go.heap_peak_mb"] = float64(heapPeak) / (1 << 20)
	for _, name := range wireTimed {
		enc, dec := timeCodec(tap, name)
		m["wire.encode_us."+classNames[name]] = enc
		m["wire.decode_us."+classNames[name]] = dec
	}
}

// wireTimed lists the message classes whose codec is timed.
var wireTimed = []msgClass{clsPrePrepare, clsPrepare, clsCommit, clsCheckpoint, clsZCRequest}

// timeCodec decodes and re-encodes the frames the tap captured of one class
// and returns the mean µs per frame for encode and decode.
func timeCodec(tap *netTap, cls msgClass) (encUs, decUs float64) {
	tap.mu.Lock()
	frames := tap.captured[cls]
	tap.mu.Unlock()
	if len(frames) == 0 {
		return 0, 0
	}
	const passes = 20
	var encNs, decNs time.Duration
	n := 0
	for p := 0; p < passes; p++ {
		for _, f := range frames {
			t0 := time.Now()
			msg, err := wire.Unmarshal(f)
			t1 := time.Now()
			if err != nil {
				continue
			}
			_ = wire.Marshal(msg)
			encNs += time.Since(t1)
			decNs += t1.Sub(t0)
			n++
		}
	}
	return ratio(float64(encNs)/1e3, float64(n)), ratio(float64(decNs)/1e3, float64(n))
}

// heapSampler tracks the peak live heap while a run is measured.
type heapSampler struct {
	peak atomic.Uint64
	stop chan struct{}
	done chan struct{}
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		t := time.NewTicker(20 * time.Millisecond)
		defer t.Stop()
		for {
			metrics.Read(s)
			if v := s[0].Value.Uint64(); v > h.peak.Load() {
				h.peak.Store(v)
			}
			select {
			case <-h.stop:
				return
			case <-t.C:
			}
		}
	}()
	return h
}

func (h *heapSampler) close() uint64 {
	close(h.stop)
	<-h.done
	return h.peak.Load()
}

// cryptoProbe times the Ed25519 paths the replicas use: one scalar verify,
// and a batch verify of the given size per signature.
func cryptoProbe(batch int) (scalarUs, batchUsPerSig float64) {
	kp := crypto.MustGenerateKeyPair(0)
	reg := crypto.NewRegistry(kp)
	msgs := make([][]byte, 64)
	sigs := make([][]byte, 64)
	for i := range msgs {
		msgs[i] = make([]byte, 200)
		fill(msgs[i], uint64(i))
		sigs[i] = kp.Sign(msgs[i])
	}
	const reps = 200
	t0 := time.Now()
	for i := 0; i < reps; i++ {
		crypto.VerifySignature(kp.Public, msgs[i%64], sigs[i%64])
	}
	scalarUs = float64(time.Since(t0)) / 1e3 / reps
	if batch < 2 {
		return scalarUs, 0
	}
	if batch > 64 {
		batch = 64
	}
	rounds := 1 + 400/batch
	t0 = time.Now()
	for r := 0; r < rounds; r++ {
		v := reg.NewBatchVerifier(batch)
		for i := 0; i < batch; i++ {
			v.Add(0, msgs[i], sigs[i])
		}
		v.Verify()
	}
	return scalarUs, float64(time.Since(t0)) / 1e3 / float64(rounds*batch)
}

// persistProbe times appends on a private WAL and block store shaped like
// the run's, both under dir: walRecord bytes per WAL record and blocks of
// the given entries. It returns mean µs per append.
func persistProbe(dir string, walRecord int, entries []blockchain.Entry) (walUs, storeUs float64, err error) {
	const reps = 20
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return 0, 0, err
	}
	defer os.RemoveAll(dir)
	if walRecord > 0 {
		l, _, _, err := wal.Open(filepath.Join(dir, "wal"))
		if err != nil {
			return 0, 0, err
		}
		rec := wal.Record{Kind: wal.KindPrepare, Data: make([]byte, walRecord)}
		t0 := time.Now()
		for i := 0; i < reps; i++ {
			rec.Seq = uint64(i + 1)
			if err := l.Append(rec); err != nil {
				_ = l.Close()
				return 0, 0, err
			}
		}
		walUs = float64(time.Since(t0)) / 1e3 / reps
		_ = l.Close()
	}
	if len(entries) == 0 {
		return walUs, 0, nil
	}
	store, err := blockchain.NewStore(filepath.Join(dir, "store"))
	if err != nil {
		return 0, 0, err
	}
	defer store.Close()
	bd := blockchain.NewBuilder(blockchain.Genesis(), len(entries))
	var blocks []*blockchain.Block
	seq := uint64(0)
	for len(blocks) < reps {
		for _, e := range entries {
			seq++
			e.Seq = seq
			if b := bd.Add(e); b != nil {
				blocks = append(blocks, b)
			}
		}
	}
	t0 := time.Now()
	for _, b := range blocks {
		if err := store.Append(b); err != nil {
			return 0, 0, err
		}
	}
	return walUs, float64(time.Since(t0)) / 1e3 / reps, nil
}
