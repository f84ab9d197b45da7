package wal

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

func streamAll(t *testing.T, m *Manager, id string, pos Position) ([]Record, Position, bool) {
	t.Helper()
	var recs []Record
	next, reset, err := m.ReadFrom(id, pos, func(r Record) error {
		recs = append(recs, Record{Kind: r.Kind, Payload: append([]byte(nil), r.Payload...)})
		return nil
	})
	if err != nil {
		t.Fatalf("ReadFrom: %v", err)
	}
	return recs, next, reset
}

func TestReadFromTailsLiveJournal(t *testing.T) {
	m, err := OpenManager(Options{Dir: t.TempDir(), Sync: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	j, err := m.OpenJournal("s1", func(Record) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()

	for i := 0; i < 5; i++ {
		if err := j.Append(2, []byte(fmt.Sprintf("rec-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	recs, pos, reset := streamAll(t, m, "s1", Position{})
	if reset {
		t.Fatal("fresh read reported reset")
	}
	if len(recs) != 5 {
		t.Fatalf("got %d records, want 5", len(recs))
	}
	// Appends after the cursor are picked up incrementally.
	for i := 5; i < 8; i++ {
		if err := j.Append(2, []byte(fmt.Sprintf("rec-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	recs, pos2, reset := streamAll(t, m, "s1", pos)
	if reset {
		t.Fatal("incremental read reported reset")
	}
	if len(recs) != 3 {
		t.Fatalf("incremental read got %d records, want 3", len(recs))
	}
	if string(recs[0].Payload) != "rec-5" {
		t.Fatalf("incremental read starts at %q, want rec-5", recs[0].Payload)
	}
	// Nothing new: cursor sticks.
	recs, pos3, _ := streamAll(t, m, "s1", pos2)
	if len(recs) != 0 || pos3 != pos2 {
		t.Fatalf("idle read returned %d records, pos %+v (want 0, %+v)", len(recs), pos3, pos2)
	}
}

func TestReadFromCrossesSegments(t *testing.T) {
	m, err := OpenManager(Options{Dir: t.TempDir(), SegmentBytes: 64, Sync: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	j, err := m.OpenJournal("s1", func(Record) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	for i := 0; i < 20; i++ {
		if err := j.Append(2, []byte(fmt.Sprintf("payload-%02d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if n, _ := j.SegmentCount(); n < 2 {
		t.Fatalf("want multiple segments, got %d", n)
	}
	recs, _, reset := streamAll(t, m, "s1", Position{})
	if reset || len(recs) != 20 {
		t.Fatalf("got %d records (reset=%v), want 20", len(recs), reset)
	}
	for i, r := range recs {
		if want := fmt.Sprintf("payload-%02d", i); string(r.Payload) != want {
			t.Fatalf("record %d = %q, want %q", i, r.Payload, want)
		}
	}
}

func TestReadFromStopsAtTornTail(t *testing.T) {
	dir := t.TempDir()
	m, err := OpenManager(Options{Dir: dir, Sync: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	j, err := m.OpenJournal("s1", func(Record) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Append(2, []byte("whole")); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	// Simulate an in-flight append: a frame header with no payload yet.
	path := filepath.Join(dir, "s1", segName(1))
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{200, 0, 0, 0, 1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	recs, pos, reset := streamAll(t, m, "s1", Position{})
	if reset || len(recs) != 1 {
		t.Fatalf("got %d records (reset=%v), want 1", len(recs), reset)
	}
	// The cursor must sit at the start of the torn frame so a later call
	// can resume once the writer completes it.
	st, _ := os.Stat(path)
	if pos.Offset >= st.Size() {
		t.Fatalf("cursor %d advanced past the intact region (file %d)", pos.Offset, st.Size())
	}
}

func TestReadFromResetsAfterCheckpoint(t *testing.T) {
	m, err := OpenManager(Options{Dir: t.TempDir(), Sync: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	j, err := m.OpenJournal("s1", func(Record) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	for i := 0; i < 4; i++ {
		if err := j.Append(2, []byte(fmt.Sprintf("old-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	_, pos, _ := streamAll(t, m, "s1", Position{})

	// Checkpoint prunes everything the reader has shipped.
	if err := j.AppendCheckpoint(3, []byte("snapshot")); err != nil {
		t.Fatal(err)
	}
	if err := j.Append(2, []byte("tail")); err != nil {
		t.Fatal(err)
	}
	recs, _, reset := streamAll(t, m, "s1", pos)
	if !reset {
		t.Fatal("read after checkpoint did not report reset")
	}
	if len(recs) != 2 || recs[0].Kind != 3 || string(recs[1].Payload) != "tail" {
		t.Fatalf("reset read got %d records (first kind %d), want snapshot+tail", len(recs), recs[0].Kind)
	}
}

func TestReadFromMissingJournal(t *testing.T) {
	m, err := OpenManager(Options{Dir: t.TempDir(), Sync: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	recs, pos, reset := streamAll(t, m, "nope", Position{})
	if len(recs) != 0 || reset || pos != (Position{}) {
		t.Fatalf("missing journal: got %d records, reset=%v, pos=%+v", len(recs), reset, pos)
	}
}

func TestDistanceAndEnd(t *testing.T) {
	m, err := OpenManager(Options{Dir: t.TempDir(), SegmentBytes: 64, Sync: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	j, err := m.OpenJournal("s1", func(Record) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if d, _ := m.Distance("s1", Position{}); d != 0 {
		t.Fatalf("empty journal distance = %d", d)
	}
	for i := 0; i < 12; i++ {
		if err := j.Append(2, []byte(fmt.Sprintf("payload-%02d", i))); err != nil {
			t.Fatal(err)
		}
	}
	full, err := m.Distance("s1", Position{})
	if err != nil {
		t.Fatal(err)
	}
	if full == 0 {
		t.Fatal("full distance is zero after appends")
	}
	// A caught-up reader's position is the journal's end.
	_, pos, _ := streamAll(t, m, "s1", Position{})
	if d, _ := m.Distance("s1", pos); d != 0 {
		t.Fatalf("distance at reader position = %d, want 0", d)
	}
}
