package e2e

import (
	"bytes"
	"context"
	"fmt"
	"hash/crc32"
	"sync"
	"testing"
	"time"

	"sprout/internal/cluster"
	"sprout/internal/core"
	"sprout/internal/objstore"
	"sprout/internal/transport"
)

// chunkLedger remembers every buffer an OSD has ever been seen storing,
// keyed by the buffer itself, with the checksum it had at first sight. It
// keeps the buffers alive, so a chunk that was deleted or replaced — which
// readers may still be holding — is checked as well as one still stored.
type chunkLedger struct {
	mu      sync.Mutex
	seen    map[*byte]ledgerEntry
	largest int
}

type ledgerEntry struct {
	where string
	data  []byte
	sum   uint32
}

// audit takes in whatever the OSDs store now and re-checks every buffer
// seen so far. It only reads chunks, which the ownership rule allows at any
// time, so it also runs beside the load: under the race detector a writer
// to a stored chunk is then reported as a race with the audit.
func (l *chunkLedger) audit(t *testing.T, cluster *objstore.Cluster) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, osd := range cluster.OSDs() {
		for key, data := range osd.Chunks() {
			if len(data) == 0 {
				t.Errorf("osd %d stores an empty chunk under %s", osd.ID, key)
				continue
			}
			if _, ok := l.seen[&data[0]]; !ok {
				l.seen[&data[0]] = ledgerEntry{where: fmt.Sprintf("osd %d, %s", osd.ID, key), data: data, sum: crc32.ChecksumIEEE(data)}
				l.largest = max(l.largest, len(data))
			}
		}
	}
	for _, e := range l.seen {
		if crc32.ChecksumIEEE(e.data) != e.sum {
			t.Errorf("stored chunk changed after it was handed over (first seen at %s)", e.where)
		}
	}
}

// TestStoredChunksImmutable drives every path that hands chunks to the
// object store or takes them out by reference — striped and central writes,
// overwrites, controller reads at cache allocations 0, partial and k over
// the network and in process, hedged and failed-over reads, a dropped-reply
// partition, OSD loss and repair — while a ledger checksums every stored
// chunk. No stored byte may ever change.
func TestStoredChunksImmutable(t *testing.T) {
	ctx := context.Background()
	chaos := transport.NewChaos(5)
	h, _ := newHarnessWith(t,
		core.ServeOptions{HedgeDelay: 2 * time.Millisecond, HedgeExtra: 2},
		transport.ServerConfig{StagedPutTTL: time.Minute, Chaos: chaos},
		transport.ClientConfig{Conns: 3})

	// Three controllers over the one pool — the harness's caches half the
	// files whole, the second nothing, the third one file whole and one in
	// part — so that reads run at d = 0, 0 < d < k and d = k.
	ctrls := []*core.Controller{h.ctrl}
	for _, capacity := range []int{0, e2eK + 2} {
		ctrl, err := h.Controller(ctx, capacity, core.ServeOptions{HedgeDelay: 2 * time.Millisecond, HedgeExtra: 2}, 1)
		if err != nil {
			t.Fatal(err)
		}
		ctrls = append(ctrls, ctrl)
	}
	allocations := map[string]bool{}
	for _, ctrl := range ctrls {
		for f := 0; f < e2eObjects; f++ {
			switch d := ctrl.CacheAllocationTarget(f); {
			case d == 0:
				allocations["none"] = true
			case d == e2eK:
				allocations["whole"] = true
			default:
				allocations["partial"] = true
			}
		}
	}
	if len(allocations) != 3 {
		t.Fatalf("cache allocations cover only %v; want files with d = 0, 0 < d < k and d = k", allocations)
	}

	ledger := &chunkLedger{seen: map[*byte]ledgerEntry{}}
	stop := make(chan struct{})
	var auditor sync.WaitGroup
	auditor.Add(1)
	go func() {
		defer auditor.Done()
		for {
			select {
			case <-stop:
				return
			case <-time.After(2 * time.Millisecond):
				ledger.audit(t, h.Cluster)
			}
		}
	}()

	fetchers := []core.ChunkFetcher{h.fetcher, h.Local}
	readAll := func(stage string) {
		t.Helper()
		for c, ctrl := range ctrls {
			for _, fetcher := range fetchers {
				for f := 0; f < e2eObjects; f++ {
					got, err := ctrl.Read(ctx, f, fetcher)
					if err != nil {
						t.Fatalf("%s: controller %d, %T, file %d: %v", stage, c, fetcher, f, err)
					}
					if !bytes.Equal(got, h.payload(f)) {
						t.Fatalf("%s: controller %d, %T, file %d: wrong bytes", stage, c, fetcher, f)
					}
				}
			}
			ctrl.WaitFills()
		}
		ledger.audit(t, h.Cluster)
	}
	// wrote records a committed overwrite: the other controllers' caches are
	// invalidated the way the router's fan-out would.
	wrote := func(fileID int, version uint64, data []byte, by *core.Controller) {
		h.setPayload(fileID, data)
		for _, ctrl := range ctrls {
			if ctrl != by {
				if _, err := ctrl.InvalidateVersion(fileID, version, len(data)); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	payload := func(size int, salt byte) []byte {
		p := make([]byte, size)
		for i := range p {
			p[i] = byte(i*11) ^ salt
		}
		return p
	}
	readAll("initial ingest")

	// In-process overwrites: Pool.PutV encodes the whole object and stages
	// the chunks by reference.
	for f := 0; f < 2; f++ {
		data := payload(e2eSize, byte(40+f))
		version, err := h.Pool.PutV(ctx, cluster.ObjectName(f), data)
		if err != nil {
			t.Fatal(err)
		}
		wrote(f, version, data, nil)
	}
	readAll("in-process overwrite")

	// Striped overwrites through each controller, twice, so superseded
	// stripes are parked and reaped; the second round's 32 KiB chunks are
	// large enough to cross the wire by reference.
	for round, size := range []int{e2eSize, 8 * e2eSize} {
		for c, ctrl := range ctrls {
			f := 2 + c
			data := payload(size, byte(60+10*round+c))
			version, err := ctrl.WriteVersion(ctx, f, data, h.Striped)
			if err != nil {
				t.Fatal(err)
			}
			wrote(f, version, data, ctrl)
		}
		readAll(fmt.Sprintf("striped overwrite, round %d", round))
	}
	if ledger.largest < 32<<10 {
		t.Fatalf("largest stored chunk is %d bytes; the by-reference wire path was not exercised", ledger.largest)
	}

	// Hedged and failed-over reads: one OSD answers late, one with errors.
	before := ctrls[1].Stats()
	chaos.SetRule(1, transport.ChaosRule{Latency: 8 * time.Millisecond})
	chaos.SetRule(3, transport.ChaosRule{ErrorRate: 1})
	readAll("slow and failing OSDs")
	chaos.Reset()
	after := ctrls[1].Stats()
	if after.HedgesLaunched == before.HedgesLaunched || after.FetchFailovers == before.FetchFailovers {
		t.Fatalf("scenario launched %d hedges and %d failovers on the uncached controller; want both",
			after.HedgesLaunched-before.HedgesLaunched, after.FetchFailovers-before.FetchFailovers)
	}

	// Dropped replies: staged chunks land on the OSD (the frame becomes the
	// stored chunk) but the client never hears back, gives up and aborts;
	// the retry after the partition heals stages the same keys again.
	partitioned, err := h.Pool.ChunkOSD(cluster.ObjectName(5), 0)
	if err != nil {
		t.Fatal(err)
	}
	chaos.SetRule(partitioned, transport.ChaosRule{DropReplies: true})
	data := payload(8*e2eSize, 99)
	short, cancel := context.WithTimeout(ctx, 150*time.Millisecond)
	if err := h.ctrl.Write(short, 5, data, h.Striped); err == nil {
		t.Fatal("write across a reply-dropping partition succeeded")
	}
	cancel()
	chaos.Reset()
	readAll("after the aborted write")
	version, err := h.ctrl.WriteVersion(ctx, 5, data, h.Striped)
	if err != nil {
		t.Fatal(err)
	}
	wrote(5, version, data, h.ctrl)
	readAll("after the partition healed")

	// OSD loss and repair: survivors are fetched by reference, rebuilt
	// chunks are placed by reference.
	h.fail(t, 2, 6)
	for _, ctrl := range ctrls[1:] {
		ctrl.SetNodeDown(2)
		ctrl.SetNodeDown(6)
	}
	readAll("degraded")
	waitCtx, cancel := context.WithTimeout(ctx, 20*time.Second)
	defer cancel()
	if err := h.repair.WaitIdle(waitCtx); err != nil {
		t.Fatalf("repair did not drain: %v", err)
	}
	if left := len(h.Pool.DegradedObjects()); left != 0 {
		t.Fatalf("%d objects still degraded after repair", left)
	}
	readAll("repaired")

	close(stop)
	auditor.Wait()
	ledger.audit(t, h.Cluster)
	if len(ledger.seen) < 2*e2eObjects*e2eN {
		t.Fatalf("ledger saw only %d stored buffers; the scenario did not overwrite and repair as intended", len(ledger.seen))
	}
}
