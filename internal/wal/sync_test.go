package wal

import (
	"errors"
	"fmt"
	"strconv"
	"sync"
	"testing"
	"time"

	"repro/internal/faultinject"
)

// waitUntil polls cond until it holds or the deadline passes.
func waitUntil(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("%s: not within %v", what, d)
		}
		time.Sleep(time.Millisecond)
	}
}

func (j *Journal) isDirty() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.dirty
}

// TestIntervalSyncsIdleJournal checks the interval policy's durability
// bound: a record appended once and then left alone is fsynced within
// about one SyncEvery, with no later append to trigger it.
func TestIntervalSyncsIdleJournal(t *testing.T) {
	const every = 20 * time.Millisecond
	m := openManager(t, Options{SyncEvery: every})
	j, _ := collect(t, m, "s1")
	defer j.Close()
	start := time.Now()
	if err := j.Append(1, []byte("last acknowledged batch")); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, every+2*time.Second, "idle journal synced", func() bool {
		return m.Stats().Syncs == 1 && !j.isDirty()
	})
	t.Logf("synced %v after the append (SyncEvery %v)", time.Since(start).Round(time.Millisecond), every)
}

// TestSyncPassCoversEveryDirtyJournal checks that one pass of the
// syncer, which runs several fsyncs at once, syncs every dirty journal
// exactly once.
func TestSyncPassCoversEveryDirtyJournal(t *testing.T) {
	m := openManager(t, Options{SyncEvery: 5 * time.Millisecond})
	js := make([]*Journal, 3*syncWorkers+1)
	for i := range js {
		js[i], _ = collect(t, m, "s"+strconv.Itoa(i))
		defer js[i].Close()
	}
	for _, j := range js {
		if err := j.Append(1, []byte("r")); err != nil {
			t.Fatal(err)
		}
	}
	waitUntil(t, 2*time.Second, "every journal synced", func() bool {
		for _, j := range js {
			if j.isDirty() {
				return false
			}
		}
		return true
	})
	if got := m.Stats().Syncs; got != uint64(len(js)) {
		t.Fatalf("syncs = %d, want %d (one per dirty journal)", got, len(js))
	}
}

// TestBackgroundSyncFailureSticky checks that a failed background fsync
// stays with the journal: every later Append, Sync and Close returns it,
// and the fsync is never tried again.
func TestBackgroundSyncFailureSticky(t *testing.T) {
	plane := faultinject.New(1).Add(faultinject.Rule{
		Point: "wal.sync", Kind: faultinject.KindError, Count: 1,
	})
	m := openManager(t, Options{SyncEvery: 5 * time.Millisecond, Faults: plane})
	j, _ := collect(t, m, "s1")
	if err := j.Append(1, []byte("r0")); err != nil {
		t.Fatalf("append before the failure: %v", err)
	}
	waitUntil(t, 2*time.Second, "background sync fault", func() bool {
		return plane.Fires("wal.sync") == 1
	})
	var injected *faultinject.Injected
	if err := j.Append(1, []byte("r1")); !errors.As(err, &injected) {
		t.Fatalf("append after failed background sync = %v, want the injected fault", err)
	}
	for i := 0; i < 2; i++ {
		if err := j.Sync(); !errors.As(err, &injected) {
			t.Fatalf("sync %d after failed background sync = %v, want the injected fault", i, err)
		}
	}
	if err := j.AppendCheckpoint(9, []byte("snap")); !errors.As(err, &injected) {
		t.Fatalf("checkpoint after failed background sync = %v, want the injected fault", err)
	}
	if hits := plane.Hits("wal.sync"); hits != 1 {
		t.Fatalf("wal.sync reached %d times, want 1 (a failed fsync must not be retried)", hits)
	}
	if err := j.Close(); !errors.As(err, &injected) {
		t.Fatalf("close = %v, want the injected fault", err)
	}
	if s := m.Stats(); s.Syncs != 0 || s.Appends != 1 {
		t.Fatalf("stats = %+v, want 1 append and 0 completed syncs", s)
	}
}

// syncer returns the done channel of the manager's running syncer, nil
// when none runs.
func (m *Manager) syncer() chan struct{} {
	m.syncMu.Lock()
	defer m.syncMu.Unlock()
	return m.syncDone
}

// exited reports whether a syncer's done channel is closed.
func exited(done chan struct{}) bool {
	select {
	case <-done:
		return true
	default:
		return false
	}
}

// TestSyncerExitsWithLastJournal checks the syncer's lifetime: one loop
// per manager while an interval journal is open, and gone by the time
// the last one's Close or Abandon returns; none at all under the other
// policies.
func TestSyncerExitsWithLastJournal(t *testing.T) {
	m := openManager(t, Options{SyncEvery: time.Millisecond})
	if m.syncer() != nil {
		t.Fatal("syncer running before any journal is open")
	}
	a, _ := collect(t, m, "a")
	first := m.syncer()
	b, _ := collect(t, m, "b")
	if first == nil || m.syncer() != first {
		t.Fatal("want one syncer for both journals")
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	time.Sleep(5 * time.Millisecond)
	if exited(first) || m.syncer() != first {
		t.Fatal("syncer stopped with a journal still open")
	}
	b.Abandon()
	if !exited(first) || m.syncer() != nil {
		t.Fatal("syncer still running after the last journal was abandoned")
	}
	c, _ := collect(t, m, "c")
	second := m.syncer()
	if second == nil || second == first {
		t.Fatal("reopening did not start a new syncer")
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if !exited(second) || m.syncer() != nil {
		t.Fatal("syncer still running after the last journal was closed")
	}
	if err := c.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}

	for _, p := range []SyncPolicy{SyncAlways, SyncNever} {
		m := openManager(t, Options{Sync: p})
		j, _ := collect(t, m, "s")
		if m.syncer() != nil {
			t.Errorf("%v: a syncer runs", p)
		}
		j.Close()
	}
}

// TestIntervalSyncStress runs appends, segment rotation, checkpoints,
// Close and Abandon on several journals while the syncer visits them
// every millisecond (run it with -race). Reopening each journal must
// give back its last checkpoint and every record after it, in order.
func TestIntervalSyncStress(t *testing.T) {
	m := openManager(t, Options{SyncEvery: time.Millisecond, SegmentBytes: 256})
	const (
		journals = 4
		rounds   = 12
		perRound = 40
	)
	want := make([][]string, journals)
	var wg sync.WaitGroup
	errc := make(chan error, journals)
	for w := 0; w < journals; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			id := "s" + strconv.Itoa(w)
			var tail []string // the last checkpoint and every record after it
			seq := 0
			for r := 0; r < rounds; r++ {
				j, err := m.OpenJournal(id, func(Record) error { return nil })
				if err != nil {
					errc <- err
					return
				}
				for i := 0; i < perRound; i++ {
					seq++
					p := fmt.Sprintf("%s-%05d", id, seq)
					if seq%25 == 0 {
						err = j.AppendCheckpoint(9, []byte(p))
						tail = tail[:0]
					} else {
						err = j.Append(1, []byte(p))
					}
					if err != nil {
						errc <- err
						return
					}
					tail = append(tail, p)
				}
				if r%2 == 0 {
					err = j.Close()
				} else {
					j.Abandon()
				}
				if err != nil {
					errc <- err
					return
				}
			}
			want[w] = tail
		}(w)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
	if m.syncer() != nil {
		t.Fatal("syncer still running after every journal closed")
	}
	for w := 0; w < journals; w++ {
		j, recs := collect(t, m, "s"+strconv.Itoa(w))
		j.Close()
		if len(recs) != len(want[w]) {
			t.Fatalf("journal %d replayed %d records, want %d", w, len(recs), len(want[w]))
		}
		for i, rec := range recs {
			if string(rec.Payload) != want[w][i] {
				t.Fatalf("journal %d record %d = %q, want %q", w, i, rec.Payload, want[w][i])
			}
			wantKind := byte(1)
			if i == 0 {
				wantKind = 9
			}
			if rec.Kind != wantKind {
				t.Fatalf("journal %d record %d kind = %d, want %d", w, i, rec.Kind, wantKind)
			}
		}
	}
	if s := m.Stats(); s.Syncs == 0 {
		t.Fatalf("no syncs during the stress: %+v", s)
	}
}
