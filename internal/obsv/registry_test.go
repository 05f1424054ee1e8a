package obsv

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"zugchain/internal/metrics"
)

func TestRegistryRegisterAndGather(t *testing.T) {
	r := NewRegistry()
	r.Register("b", func() []metrics.Metric {
		return []metrics.Metric{{Name: "zugchain_b_total", Value: 2}}
	})
	r.Register("a", func() []metrics.Metric {
		return []metrics.Metric{
			{Name: "zugchain_a_total", Value: 1},
			{Name: "zugchain_a_by_kind", Labels: `kind="x"`, Value: 3},
			{Name: "zugchain_a_by_kind", Labels: `kind="y"`, Value: 4},
		}
	})

	if got := r.Sources(); len(got) != 2 || got[0] != "b" || got[1] != "a" {
		t.Fatalf("sources = %v, want registration order [b a]", got)
	}
	ms := r.Gather()
	if len(ms) != 4 || ms[0].Name != "zugchain_b_total" {
		t.Fatalf("gather = %+v, want 4 metrics with b first", ms)
	}

	v := r.Values()
	want := map[string]float64{
		"zugchain_b_total":             2,
		"zugchain_a_total":             1,
		`zugchain_a_by_kind{kind="x"}`: 3,
		`zugchain_a_by_kind{kind="y"}`: 4,
	}
	for k, x := range want {
		if v[k] != x {
			t.Fatalf("Values()[%s] = %v, want %v (all: %v)", k, v[k], x, v)
		}
	}

	// Re-registering a name replaces the source without duplicating it.
	r.Register("a", func() []metrics.Metric {
		return []metrics.Metric{{Name: "zugchain_a_total", Value: 10}}
	})
	if got := r.Sources(); len(got) != 2 {
		t.Fatalf("sources after re-register = %v, want 2", got)
	}
	if v := r.Values(); v["zugchain_a_total"] != 10 {
		t.Fatalf("re-registered value = %v, want 10", v["zugchain_a_total"])
	}
}

func TestWritePrometheusFormat(t *testing.T) {
	r := NewRegistry()
	r.Register("fam", func() []metrics.Metric {
		return []metrics.Metric{
			{Name: "zugchain_reqs_total", Help: "Requests\nordered", Value: 7},
			{Name: "zugchain_depth", Help: "Queue depth", Kind: metrics.KindGauge, Value: 3},
			{Name: "zugchain_by_kind", Labels: `kind="x"`, Value: 1},
			{Name: "zugchain_by_kind", Labels: `kind="y"`, Value: 2},
		}
	})
	h := NewHistogram()
	h.Observe(time.Millisecond)
	h.Observe(2 * time.Millisecond)
	h.Observe(time.Second)
	r.RegisterHistogram("zugchain_lat_seconds", "Latency", h)

	var b strings.Builder
	r.WritePrometheus(&b)
	out := b.String()

	for _, want := range []string{
		"# HELP zugchain_reqs_total Requests ordered\n", // newline sanitized
		"# TYPE zugchain_reqs_total counter\n",
		"zugchain_reqs_total 7\n",
		"# TYPE zugchain_depth gauge\n",
		"zugchain_depth 3\n",
		"zugchain_by_kind{kind=\"x\"} 1\n",
		"zugchain_by_kind{kind=\"y\"} 2\n",
		"# TYPE zugchain_lat_seconds histogram\n",
		"zugchain_lat_seconds_bucket{le=\"+Inf\"} 3\n",
		"zugchain_lat_seconds_count 3\n",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
	// One TYPE header per name even with label variants.
	if n := strings.Count(out, "# TYPE zugchain_by_kind"); n != 1 {
		t.Fatalf("got %d TYPE headers for zugchain_by_kind, want 1", n)
	}

	// Histogram buckets must be cumulative and non-decreasing, ending at the
	// total count.
	var cum []uint64
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "zugchain_lat_seconds_bucket{le=") && !strings.Contains(line, "+Inf") {
			fields := strings.Fields(line)
			var c uint64
			if _, err := fmt.Sscanf(fields[len(fields)-1], "%d", &c); err != nil {
				t.Fatalf("unparseable bucket line %q: %v", line, err)
			}
			cum = append(cum, c)
		}
	}
	if len(cum) == 0 {
		t.Fatal("no bucket lines emitted")
	}
	for i := 1; i < len(cum); i++ {
		if cum[i] < cum[i-1] {
			t.Fatalf("bucket counts not cumulative at %d: %v", i, cum)
		}
	}
	if last := cum[len(cum)-1]; last != 3 {
		t.Fatalf("last finite bucket = %d, want 3", last)
	}

	// The sum must equal the observations in seconds.
	wantSum := (time.Millisecond + 2*time.Millisecond + time.Second).Seconds()
	if !strings.Contains(out, fmt.Sprintf("zugchain_lat_seconds_sum %v\n", wantSum)) {
		t.Fatalf("exposition missing sum %v:\n%s", wantSum, out)
	}
}

func TestRegistryHistogramLookup(t *testing.T) {
	r := NewRegistry()
	h := NewHistogram()
	h.Observe(time.Millisecond)
	r.RegisterHistogram("zugchain_x_seconds", "x", h)
	if got := r.Histograms(); len(got) != 1 || got[0] != "zugchain_x_seconds" {
		t.Fatalf("histograms = %v", got)
	}
	s, ok := r.Histogram("zugchain_x_seconds")
	if !ok || s.Count != 1 {
		t.Fatalf("lookup = (%+v, %v), want count 1", s, ok)
	}
	if _, ok := r.Histogram("nope"); ok {
		t.Fatal("unknown histogram reported as known")
	}
}

// TestRegistryConcurrent is the satellite race test: concurrent register,
// snapshot (Gather/WritePrometheus), and record (histogram observes) must be
// clean under -race.
func TestRegistryConcurrent(t *testing.T) {
	r := NewRegistry()
	h := NewHistogram()
	r.RegisterHistogram("zugchain_conc_seconds", "concurrency", h)

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				name := fmt.Sprintf("src-%d-%d", w, i%8)
				val := float64(i)
				r.Register(name, func() []metrics.Metric {
					return []metrics.Metric{{Name: "zugchain_conc_total", Labels: fmt.Sprintf(`src="%s"`, name), Value: val}}
				})
				h.Observe(time.Duration(i) * time.Microsecond)
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(stop)
		for i := 0; i < 100; i++ {
			r.Gather()
			r.Values()
			var b strings.Builder
			r.WritePrometheus(&b)
			r.Sources()
			r.Histogram("zugchain_conc_seconds")
		}
	}()
	wg.Wait()
	<-stop

	if got := len(r.Sources()); got != 4*8 {
		t.Fatalf("sources = %d, want %d", got, 4*8)
	}
}
