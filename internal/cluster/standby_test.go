package cluster

import (
	"fmt"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/wal"
)

// TestStandbyShipSyncsOnce checks that a standby ship costs one fsync,
// the explicit one that ends it, however long the standby sat idle
// before it.
func TestStandbyShipSyncsOnce(t *testing.T) {
	n, err := New(Config{
		Name:         "a",
		AdvertiseURL: "http://127.0.0.1:1",
		StandbyDir:   filepath.Join(t.TempDir(), "standby"),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	ship := func(from int) []wal.Record {
		recs := make([]wal.Record, 4)
		for i := range recs {
			recs[i] = wal.Record{Kind: 1, Payload: []byte(fmt.Sprintf("record-%d", from+i))}
		}
		return recs
	}
	if err := n.standby.append("s1", false, ship(0)); err != nil {
		t.Fatal(err)
	}
	// Longer than the default SyncEvery (100ms), the gap after which the
	// interval policy synced inline on the next append.
	time.Sleep(250 * time.Millisecond)
	before := n.standby.mgr.Stats().Syncs
	if err := n.standby.append("s1", false, ship(4)); err != nil {
		t.Fatal(err)
	}
	if d := n.standby.mgr.Stats().Syncs - before; d != 1 {
		t.Fatalf("a 4-record ship after an idle gap cost %d standby fsyncs, want 1", d)
	}
	recs, err := n.standby.take("s1")
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 8 || string(recs[7].Payload) != "record-7" {
		t.Fatalf("standby copy holds %d records, want 8 in order", len(recs))
	}
}
