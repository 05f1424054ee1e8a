package wal

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"zugchain/internal/crypto"
	"zugchain/internal/wire"
)

func testRecords(n int) []Record {
	recs := make([]Record, n)
	for i := range recs {
		recs[i] = Record{
			Kind:   KindPrepare,
			View:   uint64(i % 3),
			Seq:    uint64(i + 1),
			Digest: crypto.Hash([]byte(fmt.Sprintf("payload-%d", i))),
			Flag:   i%2 == 0,
			Data:   []byte(fmt.Sprintf("data-%d", i)),
		}
	}
	return recs
}

func openEmpty(t *testing.T, dir string) *Log {
	t.Helper()
	l, recs, report, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 0 || report.Truncated() {
		t.Fatalf("fresh dir replayed %d records, report %+v", len(recs), report)
	}
	return l
}

func TestAppendReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l := openEmpty(t, dir)
	want := testRecords(20)
	for _, r := range want {
		if err := l.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2, got, report, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if report.Truncated() {
		t.Errorf("clean shutdown reported truncation: %+v", report)
	}
	if len(got) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Kind != want[i].Kind || got[i].View != want[i].View ||
			got[i].Seq != want[i].Seq || got[i].Digest != want[i].Digest ||
			got[i].Flag != want[i].Flag || !bytes.Equal(got[i].Data, want[i].Data) {
			t.Errorf("record %d: got %+v want %+v", i, got[i], want[i])
		}
	}
}

func TestRecoveryTruncatesTornTail(t *testing.T) {
	dir := t.TempDir()
	l := openEmpty(t, dir)
	want := testRecords(5)
	if err := l.Append(want...); err != nil {
		t.Fatal(err)
	}
	l.Close()

	// A crash mid-write leaves a torn frame at the tail.
	path := filepath.Join(dir, "wal-00000001.log")
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	garbage := []byte{0xde, 0xad, 0xbe, 0xef, 0x01, 0x02, 0x03}
	if _, err := f.Write(garbage); err != nil {
		t.Fatal(err)
	}
	f.Close()

	l2, got, report, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if len(got) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(got), len(want))
	}
	if report.TruncatedBytes != int64(len(garbage)) {
		t.Errorf("TruncatedBytes = %d, want %d", report.TruncatedBytes, len(garbage))
	}
	// The torn tail is gone from disk: appends after recovery stay valid.
	if err := l2.Append(testRecords(1)...); err != nil {
		t.Fatal(err)
	}
	l2.Close()
	l3, got3, report3, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer l3.Close()
	if len(got3) != len(want)+1 || report3.Truncated() {
		t.Errorf("after repair: %d records, report %+v", len(got3), report3)
	}
}

func TestRecoveryCorruptMiddleDropsSuffix(t *testing.T) {
	dir := t.TempDir()
	l := openEmpty(t, dir)
	if err := l.Append(testRecords(10)...); err != nil {
		t.Fatal(err)
	}
	l.Close()

	// Flip a byte in the middle of the segment: everything from that frame
	// on is untrusted.
	path := filepath.Join(dir, "wal-00000001.log")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	l2, got, report, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if len(got) >= 10 {
		t.Errorf("replayed %d records past corruption", len(got))
	}
	if !report.Truncated() {
		t.Error("corruption not reported")
	}
}

func TestRotateDropsOldSegments(t *testing.T) {
	dir := t.TempDir()
	l := openEmpty(t, dir)
	if err := l.Append(testRecords(50)...); err != nil {
		t.Fatal(err)
	}
	snapshot := []Record{
		{Kind: KindView, View: 2, Seq: 2},
		{Kind: KindCheckpoint, Seq: 100, Data: []byte("proof")},
	}
	if err := l.Rotate(snapshot); err != nil {
		t.Fatal(err)
	}
	if err := l.Append(Record{Kind: KindCommit, View: 2, Seq: 101}); err != nil {
		t.Fatal(err)
	}
	l.Close()

	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) != 1 || filepath.Base(segs[0]) != "wal-00000002.log" {
		t.Fatalf("segments after rotate: %v", segs)
	}
	l2, got, _, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if len(got) != 3 {
		t.Fatalf("replayed %d records, want 3 (snapshot + post-rotate append)", len(got))
	}
	if got[0].Kind != KindView || got[1].Kind != KindCheckpoint || got[2].Kind != KindCommit {
		t.Errorf("unexpected replay kinds: %v %v %v", got[0].Kind, got[1].Kind, got[2].Kind)
	}
	if n := l2.Counters().Replayed.Load(); n != 3 {
		t.Errorf("counter replayed = %d", n)
	}
}

func TestConcurrentAppendsGroupCommit(t *testing.T) {
	dir := t.TempDir()
	l := openEmpty(t, dir)
	const writers, each = 8, 25
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				r := Record{Kind: KindDedup, Seq: uint64(w*each + i)}
				if err := l.Append(r); err != nil {
					t.Errorf("append: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	records, groups := l.Counters().Records.Load(), l.Counters().Groups.Load()
	if records != writers*each {
		t.Errorf("records = %d, want %d", records, writers*each)
	}
	if groups == 0 || groups > records {
		t.Errorf("groups = %d for %d records", groups, records)
	}
	l.Close()

	l2, got, _, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if len(got) != writers*each {
		t.Errorf("replayed %d records, want %d", len(got), writers*each)
	}
}

func TestClosedLogRejectsAppends(t *testing.T) {
	l := openEmpty(t, t.TempDir())
	l.Close()
	l.Close() // idempotent
	if err := l.Append(Record{Kind: KindView}); err != ErrClosed {
		t.Errorf("append after close: %v", err)
	}
	if err := l.Rotate(nil); err != ErrClosed {
		t.Errorf("rotate after close: %v", err)
	}
}

func TestRecordEncodeDecodeRoundTrip(t *testing.T) {
	for _, r := range testRecords(10) {
		got, err := DecodeRecord(EncodeRecord(r))
		if err != nil {
			t.Fatal(err)
		}
		if got.Kind != r.Kind || got.Seq != r.Seq || !bytes.Equal(got.Data, r.Data) {
			t.Errorf("round trip: got %+v want %+v", got, r)
		}
	}
}

func TestDecodeRecordRejectsMalformed(t *testing.T) {
	cases := [][]byte{
		nil,
		{},
		{0xff},
		append(EncodeRecord(Record{Kind: KindView}), 0x00), // trailing byte
		{0x00, 0x00, 0x00}, // kind 0 + truncated
	}
	for i, c := range cases {
		if _, err := DecodeRecord(c); err == nil {
			t.Errorf("case %d: malformed input decoded", i)
		}
	}
}

// rawBody is a record body that writes fixed bytes.
type rawBody []byte

func (b rawBody) EncodeTo(e *wire.Encoder) {
	for _, c := range b {
		e.Byte(c)
	}
}

// TestBodyFramesLikeData: a record whose Data is given as a Body frames to
// the same bytes as one carrying the encoded Data, and replays with that
// Data, so in-place certificates leave the on-disk format unchanged.
func TestBodyFramesLikeData(t *testing.T) {
	for _, n := range []int{0, 100, 127, 128, 2000} {
		data := bytes.Repeat([]byte{byte(n)}, n)
		rec := Record{Kind: KindPreparedCert, View: 2, Seq: 31, Digest: crypto.Hash(data)}
		var a, b Batch
		withData := rec
		withData.Data = data
		a.Add(withData)
		withBody := rec
		withBody.Body = rawBody(data)
		b.Add(withBody)
		if !bytes.Equal(a.frames(), b.frames()) {
			t.Errorf("%d bytes: Body frames differ from Data frames", n)
		}
		payload, _, err := ReadFrame(b.frames())
		if err != nil {
			t.Fatal(err)
		}
		got, err := DecodeRecord(payload)
		if err != nil || !bytes.Equal(got.Data, data) || got.Seq != 31 {
			t.Errorf("%d bytes: replayed %+v, %v", n, got, err)
		}
		a.reset()
		b.reset()
	}
}
