// Command zcbench is ZugChain's end-to-end benchmark. It runs one workload
// against real four-replica clusters (f = 1, full PBFT, Ed25519) built from
// the public node API, checks that what they recorded is correct, and
// prints the workload's metrics as one JSON line:
//
//	zcbench --workload train --seed 1 --seconds 10 --trace 0
//
// --trace 0 reports the end-to-end metrics of an untraced run. --trace 1
// reports the per-layer table from a traced run, plus the tracing overhead
// against an untraced run of the same length. See README.md.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// metricDef is one reported metric.
type metricDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// endToEnd are the metrics a user of the recorder sees. An op is a record
// on train (recorded once its block is appended on 2f+1 replica stores)
// and a block on export-lte (exported once read, verified and deleted).
var endToEnd = []metricDef{
	{"ops_per_s", "1/s", "higher"},
	{"latency_p50_ms", "ms", "lower"},
	{"latency_tail_ms", "ms", "lower"},
	{"alloc_kb_per_op", "KiB", "lower"},
	{"net_bytes_per_op", "B", "lower"},
	{"setup_s", "s", "lower"},
}

// perLayer is the per-layer table of a traced run.
var perLayer = func() []metricDef {
	var d []metricDef
	add := func(unit, better string, names ...string) {
		for _, n := range names {
			d = append(d, metricDef{n, unit, better})
		}
	}
	add("count", "lower", "crypto.scalar_verifies_per_op")
	add("count", "higher", "crypto.batched_sigs_per_op", "crypto.batch_size")
	add("share", "higher", "crypto.cache_hit_share")
	add("us", "lower", "crypto.scalar_verify_us", "crypto.batch_verify_us_per_sig")
	add("count", "lower", "crypto.pool_queue_peak")
	add("ms", "lower", "crypto.pool_task_max_ms")
	for _, c := range wireTimed {
		add("us", "lower", "wire.encode_us."+classNames[c], "wire.decode_us."+classNames[c])
	}
	for _, c := range classNames {
		add("count", "lower", "transport.msgs_per_op."+c)
		add("B", "lower", "transport.bytes_per_op."+c)
	}
	add("us", "lower", "transport.send_us", "transport.deliver_us")
	add("count", "lower", "transport.drops")
	add("count", "higher", "transport.frames_per_write")
	for _, p := range []string{"batch", "preprepare", "prepare", "commit", "execute", "fsync"} {
		add("ms", "lower", "pbft.phase_p50_ms."+p, "pbft.phase_p99_ms."+p)
	}
	add("count", "lower", "pbft.view_changes", "pbft.state_transfers")
	add("count", "higher", "pbft.slots_per_block")
	add("us", "lower", "core.on_bus_record_us")
	add("count", "lower", "core.duplicates_per_op", "core.forwards_per_op", "core.timers_per_op")
	add("count", "higher", "core.records_per_proposal")
	add("share", "lower", "core.delay_flush_share")
	add("us", "lower", "mvb.handle_frame_us")
	add("count", "higher", "signal.records_per_frame")
	add("count", "lower", "wal.fsyncs_per_op")
	add("count", "higher", "wal.records_per_group")
	add("B", "lower", "wal.bytes_per_op")
	add("us", "lower", "wal.append_us", "blockchain.store_append_us")
	add("count", "higher", "blockchain.records_per_block")
	add("count", "lower", "blockchain.fsyncs_per_block")
	add("share", "higher", "export.read_wait_share")
	add("ms", "lower", "export.verify_ms")
	add("B", "lower", "export.bytes_per_block")
	add("ms", "lower", "export.delete_ms")
	add("ms", "lower", "go.cpu_ms_per_op")
	add("count", "lower", "go.gc_per_1k_ops")
	add("MiB", "lower", "go.heap_peak_mb")
	add("ms", "lower", "bench.gen_late_ms")
	add("%", "lower", "bench.trace_overhead_pct")
	add("count", "higher", "bench.latency_samples")
	add("%", "higher", "bench.tail_percentile")
	return d
}()

// workload is a runner and how many set-ups an untraced run of it times;
// setup_s is their median. Export set-ups are short (about 75 ms of CPU),
// so more of them are timed.
type workload struct {
	run    func(runOpts) (*result, error)
	setups int
}

var workloads = map[string]workload{
	"train":      {runTrain, 5},
	"export-lte": {runExport, 25},
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type output struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

func main() {
	workload := flag.String("workload", "", "workload to run")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 10, "length of the timed window")
	trace := flag.Int("trace", 0, "1: report the per-layer table of a traced run")
	flag.Parse()

	wl, ok := workloads[*workload]
	if !ok || *seconds < 1 {
		fmt.Fprintf(os.Stderr, "zcbench: unknown workload %q or bad --seconds\n", *workload)
		os.Exit(2)
	}
	wd, err := os.Getwd()
	if err != nil {
		fatal(err)
	}
	work := filepath.Join(wd, ".bench_build", fmt.Sprintf("data-%d", os.Getpid()))
	defer os.RemoveAll(work)
	o := runOpts{seed: *seed, seconds: time.Duration(*seconds) * time.Second, setups: wl.setups, workDir: work}

	out := output{Correct: true, Metrics: make(map[string]metricOut)}
	var res *result
	if *trace == 0 {
		res, err = wl.run(o)
		if err == nil {
			emit(out.Metrics, endToEnd, res.e2e)
		}
	} else {
		// Half the window untraced, half traced: the difference in CPU
		// per op is the tracing overhead.
		o.setups, o.seconds = 1, o.seconds/2
		var plain *result
		plain, err = wl.run(o)
		if err == nil {
			o.traced = true
			res, err = wl.run(o)
		}
		if err == nil {
			res.layers["bench.trace_overhead_pct"] = (ratio(res.e2e["cpu_ms_per_op"], plain.e2e["cpu_ms_per_op"]) - 1) * 100
			res.attempted += plain.attempted
			res.failed += plain.failed
			printTable(res.layers)
			emit(out.Metrics, perLayer, res.layers)
		}
	}
	var bad errIncorrect
	if errors.As(err, &bad) {
		os.RemoveAll(work)
		fmt.Fprintf(os.Stderr, "zcbench: correctness check failed: %v\n", err)
		out.Correct = false
		printJSON(out)
		os.Exit(1)
	}
	if err != nil {
		os.RemoveAll(work)
		fatal(err)
	}
	out.Attempted, out.Failed = res.attempted, res.failed
	printJSON(out)
}

// emit copies every defined metric into out; metrics a workload does not
// exercise report 0.
func emit(out map[string]metricOut, defs []metricDef, vals map[string]float64) {
	for _, d := range defs {
		out[d.Name] = metricOut{Value: vals[d.Name], Unit: d.Unit}
	}
}

func printTable(m map[string]float64) {
	units := make(map[string]string)
	for _, d := range perLayer {
		units[d.Name] = d.Unit
	}
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("  %-36s %14.4f %s\n", n, m[n], units[n])
	}
}

func printJSON(o output) {
	b, err := json.Marshal(o)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(b))
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "zcbench: %v\n", err)
	os.Exit(2)
}
