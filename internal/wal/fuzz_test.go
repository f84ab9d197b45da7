package wal

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// replaySeeds are intact journals framed exactly as appends frame them,
// plus a torn tail, a flipped bit, an empty segment and an absurd
// length, so the fuzzers start from intact input and mutate from there.
func replaySeeds() [][]byte {
	var intact []byte
	intact = AppendFrame(intact, 1, []byte(`{"spec":"Spec","mode":"detect"}`))
	intact = AppendFrame(intact, 2, []byte(`{"seq":1,"events":["req"]}`))
	intact = AppendFrame(intact, 2, []byte(`{"seq":2,"props":{"en":true}}`))
	flipped := bytes.Clone(intact)
	flipped[13] ^= 0x40
	return [][]byte{
		intact,
		intact[:len(intact)-3],
		flipped,
		{},
		{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0, 9},
	}
}

// openSegment writes data as the only segment of session s1's journal
// under dir, replacing what an earlier call left there, and opens it
// with a fresh manager, collecting what open-time replay delivers.
// Reusing one directory per fuzz worker keeps an exec cheap.
func openSegment(t *testing.T, dir string, data []byte) (*Manager, *Journal, []Record, error) {
	t.Helper()
	sess := filepath.Join(dir, "s1")
	if err := os.MkdirAll(sess, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(sess, segName(1)), data, 0o644); err != nil {
		t.Fatal(err)
	}
	m, err := OpenManager(Options{Dir: dir})
	if err != nil {
		t.Fatalf("manager open: %v", err)
	}
	var recs []Record
	j, err := m.OpenJournal("s1", func(rec Record) error {
		recs = append(recs, rec)
		return nil
	})
	return m, j, recs, err
}

// FuzzWALReplay writes arbitrary bytes as a session's only journal
// segment and opens it: replay must either recover (possibly truncating
// a torn or corrupt tail) or fail with a clean error — never panic —
// and a recovered journal must accept appends again.
func FuzzWALReplay(f *testing.F) {
	for _, seed := range replaySeeds() {
		f.Add(seed)
	}
	dir := f.TempDir()
	f.Fuzz(func(t *testing.T, data []byte) {
		m, j, _, err := openSegment(t, dir, data)
		if err != nil {
			// A clean refusal is a valid outcome for corrupt input.
			return
		}
		// Recovery succeeded: the journal must be writable again, and a
		// second open must replay without error (the recovered file is
		// intact by construction).
		if err := j.Append(3, []byte("post-recovery")); err != nil {
			t.Fatalf("append after recovery: %v", err)
		}
		if err := j.Close(); err != nil {
			t.Fatalf("close: %v", err)
		}
		if _, err := m.OpenJournal("s1", func(Record) error { return nil }); err != nil {
			t.Fatalf("reopen after recovery: %v", err)
		}
	})
}

// goldenSegments are the frozen journal segments under
// testdata/journals, each written by an older cescd.
func goldenSegments(tb testing.TB) [][]byte {
	tb.Helper()
	paths, err := filepath.Glob("../../testdata/journals/*/wal/*/*.wal")
	if err != nil || len(paths) == 0 {
		tb.Fatalf("no golden segments (%v)", err)
	}
	var segs [][]byte
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			tb.Fatal(err)
		}
		segs = append(segs, data)
	}
	return segs
}

// FuzzReadFrames feeds arbitrary bytes to the strict frame reader that
// standbys check replicated bodies with. It must never panic; every
// input it accepts must re-encode byte for byte through AppendFrame;
// and it must accept exactly the inputs that open-time replay reads in
// full, delivering the same records, with nothing truncated.
func FuzzReadFrames(f *testing.F) {
	for _, seed := range append(goldenSegments(f), replaySeeds()...) {
		f.Add(seed)
	}
	dir := f.TempDir()
	f.Fuzz(func(t *testing.T, data []byte) {
		var recs []Record
		var again []byte
		strictErr := ReadFrames(data, func(rec Record) error {
			recs = append(recs, rec)
			again = AppendFrame(again, rec.Kind, rec.Payload)
			return nil
		})
		if strictErr == nil && !bytes.Equal(again, data) {
			t.Fatalf("accepted %d bytes re-encode to %d different bytes", len(data), len(again))
		}
		m, j, replayed, err := openSegment(t, dir, data)
		if err != nil {
			t.Fatalf("open-time replay of a single segment: %v", err)
		}
		j.Abandon()
		whole := m.Stats().TornBytes == 0
		if whole != (strictErr == nil) {
			t.Fatalf("ReadFrames error %v, but replay truncated %d bytes", strictErr, m.Stats().TornBytes)
		}
		if !whole {
			return
		}
		if len(replayed) != len(recs) {
			t.Fatalf("replay read %d records, ReadFrames %d", len(replayed), len(recs))
		}
		for i := range recs {
			if replayed[i].Kind != recs[i].Kind || !bytes.Equal(replayed[i].Payload, recs[i].Payload) {
				t.Fatalf("record %d: replay read kind %d %q, ReadFrames kind %d %q",
					i, replayed[i].Kind, replayed[i].Payload, recs[i].Kind, recs[i].Payload)
			}
		}
	})
}
