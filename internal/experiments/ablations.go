package experiments

import (
	"fmt"
	"strings"
	"time"

	"zugchain/internal/testbed"
)

// AblationRow is one configuration point of an ablation sweep.
type AblationRow struct {
	Label  string
	Result testbed.Result
}

// AblationCheckpointInterval sweeps the checkpoint interval K: blocks are
// sealed per slot whatever K is, so a shorter interval means more
// frequent checkpoints (earlier export eligibility) at the cost of more
// checkpoint traffic, and a longer one amortizes signatures but delays
// exportability.
func AblationCheckpointInterval(opt Options) ([]AblationRow, error) {
	intervals := []uint64{1, 5, 10, 20, 50}
	rows := make([]AblationRow, 0, len(intervals))
	for _, k := range intervals {
		res, err := testbed.Run(testbed.Scenario{
			BusCycle:           64 * time.Millisecond,
			PayloadSize:        1024,
			Cycles:             opt.Cycles,
			TimeScale:          opt.TimeScale,
			Seed:               opt.Seed,
			CheckpointInterval: k,
		})
		if err != nil {
			return nil, fmt.Errorf("checkpoint interval %d: %w", k, err)
		}
		rows = append(rows, AblationRow{Label: fmt.Sprintf("ckpt=%d", k), Result: *res})
	}
	return rows, nil
}

// AblationSoftTimeout sweeps the soft timeout with a primary that dies
// mid-run: detection time — and therefore the worst-case latency of the
// requests held through the outage — is bounded by soft + hard timeout
// before the view change can begin. The paper argues this is the knob for
// trading false-suspicion risk against recovery speed ("the view change
// timeout in ZugChain can be shortened further", §V-B); the sweep makes the
// trade-off measurable.
func AblationSoftTimeout(opt Options) ([]AblationRow, error) {
	timeouts := []time.Duration{
		100 * time.Millisecond,
		250 * time.Millisecond,
		500 * time.Millisecond,
		1000 * time.Millisecond,
	}
	cycles := opt.Cycles
	if cycles < 60 {
		cycles = 60
	}
	rows := make([]AblationRow, 0, len(timeouts))
	for _, soft := range timeouts {
		res, err := testbed.Run(testbed.Scenario{
			BusCycle:           64 * time.Millisecond,
			PayloadSize:        1024,
			Cycles:             cycles,
			TimeScale:          opt.TimeScale,
			Seed:               opt.Seed,
			SoftTimeout:        soft,
			HardTimeout:        250 * time.Millisecond, // fixed: isolates the soft knob
			KillPrimaryAtCycle: cycles / 2,
		})
		if err != nil {
			return nil, fmt.Errorf("soft timeout %v: %w", soft, err)
		}
		rows = append(rows, AblationRow{Label: fmt.Sprintf("soft=%v", soft), Result: *res})
	}
	return rows, nil
}

// FormatAblation renders an ablation sweep.
func FormatAblation(title string, rows []AblationRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	fmt.Fprintf(&b, "%-12s %12s %12s %12s %8s %14s %10s\n",
		"point", "median-lat", "p99-lat", "max-lat", "blocks", "net(B/s)", "ordered")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-12s %12v %12v %12v %8d %14.0f %10d\n",
			r.Label,
			r.Result.Latency.Median.Round(time.Microsecond),
			r.Result.Latency.P99.Round(time.Microsecond),
			r.Result.Latency.Max.Round(time.Millisecond),
			r.Result.Blocks,
			r.Result.NetBytesPerNodePerSec,
			r.Result.Ordered)
	}
	return b.String()
}
