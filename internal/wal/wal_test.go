package wal

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/faultinject"
)

func openManager(t *testing.T, opts Options) *Manager {
	t.Helper()
	if opts.Dir == "" {
		opts.Dir = t.TempDir()
	}
	m, err := OpenManager(opts)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func collect(t *testing.T, m *Manager, id string) (*Journal, []Record) {
	t.Helper()
	var recs []Record
	j, err := m.OpenJournal(id, func(r Record) error {
		recs = append(recs, Record{Kind: r.Kind, Payload: append([]byte(nil), r.Payload...)})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return j, recs
}

// TestAppendReplayRoundTrip checks records come back in order, intact,
// across reopen.
func TestAppendReplayRoundTrip(t *testing.T) {
	m := openManager(t, Options{})
	j, recs := collect(t, m, "s1")
	if len(recs) != 0 {
		t.Fatalf("fresh journal replayed %d records", len(recs))
	}
	var want []Record
	for i := 0; i < 100; i++ {
		r := Record{Kind: byte(1 + i%3), Payload: []byte(fmt.Sprintf("payload-%03d", i))}
		want = append(want, r)
		if err := j.Append(r.Kind, r.Payload); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	j2, got := collect(t, m, "s1")
	defer j2.Close()
	if len(got) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Kind != want[i].Kind || !bytes.Equal(got[i].Payload, want[i].Payload) {
			t.Fatalf("record %d = %v/%q, want %v/%q", i, got[i].Kind, got[i].Payload, want[i].Kind, want[i].Payload)
		}
	}
	if s := m.Stats(); s.Appends != 100 || s.Replayed != 100 {
		t.Errorf("stats = %+v", s)
	}
}

// TestPayloadAppendKeepsNextRecord checks that replayed payloads, which
// alias the read buffer, end at their own frame: appending to one during
// replay (or through ReadFrames) leaves the record after it intact.
func TestPayloadAppendKeepsNextRecord(t *testing.T) {
	m := openManager(t, Options{})
	j, _ := collect(t, m, "s1")
	want := [][]byte{[]byte("first"), []byte("second"), []byte("third")}
	var frames []byte
	for _, p := range want {
		if err := j.Append(1, p); err != nil {
			t.Fatal(err)
		}
		frames = AppendFrame(frames, 1, p)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	check := func(read func(fn func(Record) error) error) {
		t.Helper()
		var got [][]byte
		if err := read(func(rec Record) error {
			got = append(got, rec.Payload)
			_ = append(rec.Payload, "XXXXXXXXXXXXXXXX"...)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("read %d records, want %d", len(got), len(want))
		}
		for i := range want {
			if !bytes.Equal(got[i], want[i]) {
				t.Errorf("record %d = %q, want %q", i, got[i], want[i])
			}
		}
	}
	check(func(fn func(Record) error) error {
		j2, err := m.OpenJournal("s1", fn)
		if err == nil {
			j2.Abandon()
		}
		return err
	})
	check(func(fn func(Record) error) error { return ReadFrames(frames, fn) })
}

// TestSegmentRotation checks appends spill across segments and still
// replay completely.
func TestSegmentRotation(t *testing.T) {
	m := openManager(t, Options{SegmentBytes: 256})
	j, _ := collect(t, m, "s1")
	payload := bytes.Repeat([]byte("x"), 100)
	for i := 0; i < 10; i++ {
		if err := j.Append(1, payload); err != nil {
			t.Fatal(err)
		}
	}
	n, err := j.SegmentCount()
	if err != nil {
		t.Fatal(err)
	}
	if n < 3 {
		t.Fatalf("segments = %d, want >= 3 with 256-byte rotation", n)
	}
	j.Close()
	j2, recs := collect(t, m, "s1")
	defer j2.Close()
	if len(recs) != 10 {
		t.Fatalf("replayed %d records across segments, want 10", len(recs))
	}
}

// TestTornTailTruncated checks a record cut mid-write (crash) is dropped
// and the journal keeps working.
func TestTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	m := openManager(t, Options{Dir: dir})
	j, _ := collect(t, m, "s1")
	for i := 0; i < 5; i++ {
		if err := j.Append(1, []byte(fmt.Sprintf("intact-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	j.Close()
	// Simulate a torn final write: append half a frame to the segment.
	seg := filepath.Join(dir, "s1", segName(1))
	f, err := os.OpenFile(seg, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0xFF, 0x00, 0x00, 0x00, 0xAB}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	j2, recs := collect(t, m, "s1")
	if len(recs) != 5 {
		t.Fatalf("replayed %d records after torn tail, want 5", len(recs))
	}
	if m.Stats().TornBytes == 0 {
		t.Error("torn_bytes not counted")
	}
	// The journal must accept appends after the truncation, and the new
	// record must survive the next replay.
	if err := j2.Append(2, []byte("after-tear")); err != nil {
		t.Fatal(err)
	}
	j2.Close()
	j3, recs := collect(t, m, "s1")
	defer j3.Close()
	if len(recs) != 6 || string(recs[5].Payload) != "after-tear" {
		t.Fatalf("post-tear replay = %d records (last %q)", len(recs), recs[len(recs)-1].Payload)
	}
}

// TestCorruptTailTruncated checks a bit-flipped final record fails its
// CRC and is dropped like a torn write.
func TestCorruptTailTruncated(t *testing.T) {
	dir := t.TempDir()
	m := openManager(t, Options{Dir: dir})
	j, _ := collect(t, m, "s1")
	for i := 0; i < 3; i++ {
		if err := j.Append(1, []byte("record-payload")); err != nil {
			t.Fatal(err)
		}
	}
	j.Close()
	seg := filepath.Join(dir, "s1", segName(1))
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xFF // flip a payload bit of the last record
	if err := os.WriteFile(seg, data, 0o644); err != nil {
		t.Fatal(err)
	}
	j2, recs := collect(t, m, "s1")
	defer j2.Close()
	if len(recs) != 2 {
		t.Fatalf("replayed %d records after CRC corruption, want 2", len(recs))
	}
}

// TestMidJournalCorruptionErrors checks corruption before the tail is a
// loud error, not silent data loss.
func TestMidJournalCorruptionErrors(t *testing.T) {
	dir := t.TempDir()
	m := openManager(t, Options{Dir: dir, SegmentBytes: 64})
	j, _ := collect(t, m, "s1")
	for i := 0; i < 6; i++ {
		if err := j.Append(1, bytes.Repeat([]byte("y"), 40)); err != nil {
			t.Fatal(err)
		}
	}
	j.Close()
	// Corrupt the FIRST segment; a later segment exists, so this is
	// mid-journal corruption.
	seg := filepath.Join(dir, "s1", segName(1))
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xFF
	if err := os.WriteFile(seg, data, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = m.OpenJournal("s1", func(Record) error { return nil })
	if err == nil || !strings.Contains(err.Error(), "corruption") {
		t.Fatalf("mid-journal corruption error = %v, want loud error", err)
	}
}

// TestCheckpointGC checks AppendCheckpoint leaves only the snapshot
// segment plus later appends.
func TestCheckpointGC(t *testing.T) {
	m := openManager(t, Options{SegmentBytes: 128})
	j, _ := collect(t, m, "s1")
	for i := 0; i < 8; i++ {
		if err := j.Append(1, bytes.Repeat([]byte("z"), 60)); err != nil {
			t.Fatal(err)
		}
	}
	before, _ := j.SegmentCount()
	if before < 2 {
		t.Fatalf("want multiple segments before checkpoint, got %d", before)
	}
	if err := j.AppendCheckpoint(9, []byte("snapshot-state")); err != nil {
		t.Fatal(err)
	}
	after, _ := j.SegmentCount()
	if after != 1 {
		t.Fatalf("segments after checkpoint = %d, want 1", after)
	}
	if err := j.Append(1, []byte("tail")); err != nil {
		t.Fatal(err)
	}
	j.Close()
	j2, recs := collect(t, m, "s1")
	defer j2.Close()
	if len(recs) != 2 || recs[0].Kind != 9 || string(recs[1].Payload) != "tail" {
		t.Fatalf("post-checkpoint replay = %+v, want [snapshot, tail]", recs)
	}
}

// TestSyncPolicies parses the flag spellings and exercises SyncAlways
// counting.
func TestSyncPolicies(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want SyncPolicy
		ok   bool
	}{
		{"always", SyncAlways, true},
		{"interval", SyncInterval, true},
		{"", SyncInterval, true},
		{"never", SyncNever, true},
		{"sometimes", 0, false},
	} {
		got, err := ParseSyncPolicy(tc.in)
		if tc.ok && (err != nil || got != tc.want) {
			t.Errorf("ParseSyncPolicy(%q) = %v, %v", tc.in, got, err)
		}
		if !tc.ok && err == nil {
			t.Errorf("ParseSyncPolicy(%q) accepted", tc.in)
		}
	}
	m := openManager(t, Options{Sync: SyncAlways})
	j, _ := collect(t, m, "s1")
	defer j.Close()
	for i := 0; i < 4; i++ {
		if err := j.Append(1, []byte("p")); err != nil {
			t.Fatal(err)
		}
	}
	if s := m.Stats(); s.Syncs < 4 {
		t.Errorf("SyncAlways syncs = %d, want >= 4", s.Syncs)
	}
}

// TestFaultInjectionOnAppend checks the wal.append fault point surfaces
// as an append error without corrupting the journal.
func TestFaultInjectionOnAppend(t *testing.T) {
	plane := faultinject.New(1).Add(faultinject.Rule{
		Point: "wal.append", Kind: faultinject.KindError, After: 2, Every: 0,
	})
	m := openManager(t, Options{Faults: plane})
	j, _ := collect(t, m, "s1")
	var errs int
	for i := 0; i < 5; i++ {
		if err := j.Append(1, []byte(fmt.Sprintf("r%d", i))); err != nil {
			errs++
		}
	}
	if errs != 1 {
		t.Fatalf("injected errors = %d, want 1", errs)
	}
	j.Close()
	j2, recs := collect(t, m, "s1")
	defer j2.Close()
	if len(recs) != 4 {
		t.Fatalf("replayed %d records, want 4 (failed append must not write)", len(recs))
	}
}

// TestManagerListRemove checks session enumeration and removal.
func TestManagerListRemove(t *testing.T) {
	m := openManager(t, Options{})
	for _, id := range []string{"b", "a"} {
		j, _ := collect(t, m, id)
		j.Close()
	}
	ids, err := m.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 2 || ids[0] != "a" || ids[1] != "b" {
		t.Fatalf("List = %v", ids)
	}
	if err := m.Remove("a"); err != nil {
		t.Fatal(err)
	}
	ids, _ = m.List()
	if len(ids) != 1 || ids[0] != "b" {
		t.Fatalf("after Remove, List = %v", ids)
	}
}
