package stack

import (
	"bytes"
	"context"
	"net"
	"runtime"
	"strings"
	"testing"
	"time"

	"sprout/internal/core"
	"sprout/internal/queue"
	"sprout/internal/racedetect"
	"sprout/internal/transport"
)

// stackGoroutines counts goroutines running this repository's code, other
// than the test's own.
func stackGoroutines() int {
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	n := 0
	for _, g := range strings.Split(string(buf), "\n\n") {
		if strings.Contains(g, "sprout/internal/") && !strings.Contains(g, "sprout/internal/stack.Test") {
			n++
		}
	}
	return n
}

// settles waits until no more goroutines run this repository's code than
// before.
func settles(t *testing.T, before int) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); stackGoroutines() > before; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines left running, %d before the stack", stackGoroutines(), before)
		}
	}
}

func wiredSpec() Spec {
	return Spec{
		Service: queue.Deterministic{Value: 0.0001},
		Seed:    3,
		Objects: 6,
		Size:    16 << 10,
		Listen:  "127.0.0.1:0",
		Tenants: []string{"", "bronze"},
		Client:  transport.ClientConfig{Conns: 2},
	}
}

// TestCloseStopsEverything builds a wired stack with a planned controller
// whose background loops run, reads every file over the wire and in
// process, and checks that Close leaves no goroutine behind and no
// listener accepting.
func TestCloseStopsEverything(t *testing.T) {
	before := stackGoroutines()
	ctx := context.Background()
	st, err := New(ctx, wiredSpec())
	if err != nil {
		t.Fatal(err)
	}
	serve := core.ServeOptions{HedgeDelay: 5 * time.Millisecond, HedgeExtra: 1, ReplanInterval: 20 * time.Millisecond, ReplanThreshold: 0.5}
	ctrl, err := st.Controller(ctx, 12, serve, 1)
	if err != nil {
		st.Close()
		t.Fatal(err)
	}
	for f := 0; f < 6; f++ {
		for _, fetcher := range []core.ChunkFetcher{st.Remote["bronze"], st.Local} {
			got, err := ctrl.Read(ctx, f, fetcher)
			if err != nil {
				st.Close()
				t.Fatalf("file %d through %T: %v", f, fetcher, err)
			}
			if !bytes.Equal(got, st.Payload(f)) {
				st.Close()
				t.Fatalf("file %d through %T differs from its ingested payload", f, fetcher)
			}
		}
	}
	if stackGoroutines() <= before {
		t.Fatal("a running stack shows no goroutines; the count proves nothing")
	}
	st.Close()
	settles(t, before)
	if conn, err := net.DialTimeout("tcp", st.Addr, time.Second); err == nil {
		_ = conn.Close()
		t.Fatalf("%s still accepts connections after Close", st.Addr)
	}
}

// TestFailedNewStopsEverything makes New fail at its listen and at its
// ingest, after the server and the clients are up, and checks that it
// leaves no goroutine behind.
func TestFailedNewStopsEverything(t *testing.T) {
	taken, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer taken.Close()

	badListen := wiredSpec()
	badListen.Listen = taken.Addr().String()
	badIngest := wiredSpec()
	badIngest.Size = 0 // an empty object cannot be erasure-coded
	noListen := wiredSpec()
	noListen.Listen = ""
	for _, tc := range []struct {
		name    string
		spec    Spec
		wantErr string
	}{
		{"listen on a taken address", badListen, "address already in use"},
		{"ingest of empty objects", badIngest, "stack: ingest file-"},
		{"tenants without a server", noListen, "need a listen address"},
	} {
		before := stackGoroutines()
		st, err := New(context.Background(), tc.spec)
		if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
			if st != nil {
				st.Close()
			}
			t.Fatalf("%s: New = %v, want an error containing %q", tc.name, err, tc.wantErr)
		}
		settles(t, before)
	}
}

// errSink is a reusable FetchSink: each completion sends its error.
type errSink chan error

func (s errSink) FetchDone(_ []byte, _ core.StripeInfo, err error) { s <- err }

// TestStartFetchesAllocatesNothing: a warm in-process fan-out — PoolIO's
// StartFetches with a sink the caller reuses — allocates nothing, whether its
// reads complete inline (no service time) or off the OSDs' timers.
func TestStartFetchesAllocatesNothing(t *testing.T) {
	if racedetect.Enabled {
		t.Skip("allocation counts include the race detector's own")
	}
	for _, service := range []float64{0, 0.00001} {
		ctx := context.Background()
		st, err := New(ctx, Spec{Service: queue.Deterministic{Value: service}, Seed: 1, Objects: 2, Size: 16 << 10})
		if err != nil {
			t.Fatal(err)
		}
		sink := make(errSink, 4)
		refs := make([]core.FetchRef, 4)
		for i := range refs {
			refs[i] = core.FetchRef{ChunkIndex: i, Sink: sink}
		}
		fetch := func() {
			st.Local.StartFetches(ctx, 1, refs)
			for range refs {
				if err := <-sink; err != nil {
					t.Fatal(err)
				}
			}
		}
		fetch()
		if n := testing.AllocsPerRun(200, fetch); n != 0 {
			t.Errorf("service %gs: StartFetches of %d chunks allocates %v times", service, len(refs), n)
		}
		st.Close()
	}
}
