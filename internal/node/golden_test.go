package node

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/metrics.golden from the current /metrics output")

// finiteBucket matches a histogram bucket line below +Inf. Which of those
// appear depends on the latencies observed (only non-empty buckets are
// exported), so they are data, not declarations.
var finiteBucket = regexp.MustCompile(`^\S+_bucket\{le="[^+][^"]*"\} `)

// normalizeExposition keeps what a counter declares — every series name,
// # HELP and # TYPE line, label set and their order — and replaces each
// sample value with a placeholder.
func normalizeExposition(text string) string {
	var b strings.Builder
	for _, line := range strings.Split(strings.TrimSuffix(text, "\n"), "\n") {
		switch {
		case strings.HasPrefix(line, "#"):
			b.WriteString(line)
		case finiteBucket.MatchString(line):
			continue
		default:
			i := strings.LastIndexByte(line, ' ')
			b.WriteString(line[:i] + " <value>")
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// TestMetricsExpositionGolden pins the /metrics surface of a durable replica
// (store + WAL, so every counter family registers): names, help text, types,
// labels and order must match testdata/metrics.golden. Dashboards and the
// benchmark read these series by name. Run with -update to regenerate after
// an intended change.
func TestMetricsExpositionGolden(t *testing.T) {
	c := newCluster(t, func(cfg *Config) {
		cfg.CheckpointInterval = 5
		cfg.DataDir = filepath.Join(t.TempDir(), string(rune('a'+cfg.ID)))
	}, nil)
	c.tickUntilSeq(10, 30*time.Second)

	var buf bytes.Buffer
	c.nodes[0].Obs().Registry.WritePrometheus(&buf)
	got := normalizeExposition(buf.String())

	path := filepath.Join("testdata", "metrics.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) || i < len(wl); i++ {
			var g, w string
			if i < len(gl) {
				g = gl[i]
			}
			if i < len(wl) {
				w = wl[i]
			}
			if g != w {
				t.Fatalf("/metrics differs from %s at line %d:\n got: %s\nwant: %s", path, i+1, g, w)
			}
		}
	}
}
