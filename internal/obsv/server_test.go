package obsv

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"zugchain/internal/metrics"
)

func testObserver() *Observer {
	o := NewObserver(Options{TraceRing: 8, JournalSize: 8})
	o.Registry.Register("test", func() []metrics.Metric {
		return []metrics.Metric{
			{Name: "zugchain_test_total", Help: "test counter", Value: 5},
		}
	})
	d := digestFor(1)
	o.Tracer.BeginRecord(d)
	o.Tracer.StampSlot(1, PhaseCommit)
	o.Tracer.FinishRecord(d, 1)
	o.Journal.Record(Event{Kind: EventNewPrimary, View: 0, Node: 1})
	o.Journal.Record(Event{Kind: EventViewChangeSent, View: 1, Node: 1})
	return o
}

func get(t *testing.T, h http.Handler, path string) (int, string) {
	t.Helper()
	req := httptest.NewRequest("GET", path, nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	body, _ := io.ReadAll(rec.Result().Body)
	return rec.Code, string(body)
}

func TestHandlerMetrics(t *testing.T) {
	h := Handler(testObserver())
	code, body := get(t, h, "/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics = %d", code)
	}
	for _, want := range []string{
		"zugchain_test_total 5",
		"zugchain_events_total 2",
		"zugchain_trace_completed_total 1",
		"zugchain_trace_total_seconds_count 1",
		"zugchain_go_goroutines",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("/metrics missing %q:\n%s", want, body)
		}
	}
}

func TestHandlerStatusz(t *testing.T) {
	h := Handler(testObserver())
	code, body := get(t, h, "/statusz")
	if code != http.StatusOK {
		t.Fatalf("/statusz = %d", code)
	}
	var status struct {
		Uptime     string                `json:"uptime"`
		Metrics    map[string]float64    `json:"metrics"`
		Histograms map[string]histStatus `json:"histograms"`
	}
	if err := json.Unmarshal([]byte(body), &status); err != nil {
		t.Fatalf("statusz is not JSON: %v\n%s", err, body)
	}
	if status.Uptime == "" {
		t.Fatal("statusz missing uptime")
	}
	if status.Metrics["zugchain_test_total"] != 5 {
		t.Fatalf("statusz metrics = %v", status.Metrics)
	}
	hs, ok := status.Histograms["zugchain_trace_total_seconds"]
	if !ok || hs.Count != 1 {
		t.Fatalf("statusz histograms = %v", status.Histograms)
	}
}

func TestHandlerTracez(t *testing.T) {
	h := Handler(testObserver())
	code, body := get(t, h, "/tracez")
	if code != http.StatusOK {
		t.Fatalf("/tracez = %d", code)
	}
	if !strings.Contains(body, "1 traces retained") {
		t.Fatalf("/tracez body:\n%s", body)
	}

	// Tracing disabled: the page must say so, not crash.
	off := NewObserver(Options{DisableTrace: true})
	code, body = get(t, Handler(off), "/tracez")
	if code != http.StatusOK || !strings.Contains(body, "tracing disabled") {
		t.Fatalf("/tracez with tracing off = %d:\n%s", code, body)
	}
}

func TestHandlerEventz(t *testing.T) {
	h := Handler(testObserver())
	code, body := get(t, h, "/eventz")
	if code != http.StatusOK {
		t.Fatalf("/eventz = %d", code)
	}
	if !strings.Contains(body, "view-change-sent") || !strings.Contains(body, "new-primary") {
		t.Fatalf("/eventz body:\n%s", body)
	}

	code, body = get(t, h, "/eventz?json=1")
	if code != http.StatusOK {
		t.Fatalf("/eventz?json=1 = %d", code)
	}
	var events []Event
	if err := json.Unmarshal([]byte(body), &events); err != nil {
		t.Fatalf("eventz json: %v\n%s", err, body)
	}
	if len(events) != 2 || events[1].Kind != EventViewChangeSent {
		t.Fatalf("eventz json events = %+v", events)
	}
}

func TestHandlerPprofAndRoot(t *testing.T) {
	h := Handler(testObserver())
	if code, _ := get(t, h, "/debug/pprof/"); code != http.StatusOK {
		t.Fatalf("/debug/pprof/ = %d", code)
	}
	if code, body := get(t, h, "/"); code != http.StatusOK || !strings.Contains(body, "/metrics") {
		t.Fatalf("/ = %d:\n%s", code, body)
	}
	if code, _ := get(t, h, "/nope"); code != http.StatusNotFound {
		t.Fatalf("/nope = %d, want 404", code)
	}
}

func TestServeRealListener(t *testing.T) {
	o := testObserver()
	s, err := Serve("127.0.0.1:0", o)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	client := &http.Client{Timeout: 5 * time.Second}
	resp, err := client.Get("http://" + s.Addr() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "zugchain_test_total") {
		t.Fatalf("live /metrics = %d:\n%s", resp.StatusCode, body)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}
