package obsv

import (
	"fmt"
	"log"
	"strings"
	"time"
)

// Reporter is the shared periodic stats ticker all daemons print through —
// one implementation instead of the per-command copy-pasted ticker loops.
// Interval <= 0 disables it entirely (Stop stays safe to call), preserving
// the commands' "0 = off" flag semantics.
type Reporter struct {
	quit chan struct{}
	done chan struct{}
	off  bool
}

// NewReporter starts a ticker that calls line every interval and logs the
// result through logf (log.Printf when nil). Lines returning "" are
// skipped.
func NewReporter(interval time.Duration, line func() string, logf func(format string, args ...any)) *Reporter {
	r := &Reporter{quit: make(chan struct{}), done: make(chan struct{})}
	if interval <= 0 {
		r.off = true
		close(r.done)
		return r
	}
	if logf == nil {
		logf = log.Printf
	}
	go func() {
		defer close(r.done)
		ticker := time.NewTicker(interval)
		defer ticker.Stop()
		for {
			select {
			case <-r.quit:
				return
			case <-ticker.C:
				if s := line(); s != "" {
					logf("%s", s)
				}
			}
		}
	}()
	return r
}

// Stop halts the ticker and waits for the loop to exit.
func (r *Reporter) Stop() {
	if r.off {
		return
	}
	select {
	case <-r.quit:
	default:
		close(r.quit)
	}
	<-r.done
}

// Summary renders one compact stats line from whatever families are
// registered in an observer — absent families are simply omitted, so the
// same formatter serves a full replica, the in-process simulation, and the
// data center daemon.
func Summary(o *Observer) string {
	v := o.Registry.Values()
	var b strings.Builder

	has := func(name string) bool { _, ok := v[name]; return ok }
	n := func(name string) uint64 { return uint64(v[name]) }

	if has("zugchain_chain_height") {
		fmt.Fprintf(&b, "height=%d base=%d", n("zugchain_chain_height"), n("zugchain_chain_base"))
	}
	if has("zugchain_core_ordered_total") {
		sep(&b)
		fmt.Fprintf(&b, "ordered=%d dup=%d open=%d",
			n("zugchain_core_ordered_total"), n("zugchain_core_duplicates_total"), n("zugchain_chain_open"))
	}
	if s, ok := o.Registry.Histogram("zugchain_trace_total_seconds"); ok && s.Count > 0 {
		sep(&b)
		fmt.Fprintf(&b, "lat(p50=%v p99=%v)",
			s.Quantile(0.5).Round(time.Microsecond), s.Quantile(0.99).Round(time.Microsecond))
	}
	if has("zugchain_net_enqueued_total") {
		sep(&b)
		fmt.Fprintf(&b, "net(q=%d drop=%d redial=%d)",
			n("zugchain_net_queue_depth"),
			n("zugchain_net_drops_total")+n("zugchain_net_write_errors_total"),
			n("zugchain_net_redials_total"))
	}
	if has("zugchain_crypto_scalar_verifies_total") {
		sep(&b)
		fmt.Fprintf(&b, "crypto(batched=%d scalar=%d)",
			n("zugchain_crypto_batched_sigs_total"), n("zugchain_crypto_scalar_verifies_total"))
	}
	if has("zugchain_wal_groups_total") {
		sep(&b)
		fmt.Fprintf(&b, "wal(groups=%d recs=%d rot=%d)",
			n("zugchain_wal_groups_total"), n("zugchain_wal_records_total"), n("zugchain_wal_rotations_total"))
	}
	if has("zugchain_events_total") && n("zugchain_events_total") > 0 {
		sep(&b)
		fmt.Fprintf(&b, "events=%d", n("zugchain_events_total"))
	}
	return b.String()
}

func sep(b *strings.Builder) {
	if b.Len() > 0 {
		b.WriteByte(' ')
	}
}
