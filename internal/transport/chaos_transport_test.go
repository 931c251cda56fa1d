package transport

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"
)

// chaosFixture boots a server with a chaos harness attached and one stored
// object, returning the OSD hosting its chunk 0 as the fault target.
func chaosFixture(t *testing.T, ccfg ClientConfig) (*Chaos, *Client, int) {
	t.Helper()
	cluster := testClusterWithService(t, 0.0001)
	chaos := NewChaos(1)
	_, client := startServerWithConfig(t, cluster, ServerConfig{Chaos: chaos}, ccfg)
	seed(t, cluster, "obj", make([]byte, 3000))
	pool, err := cluster.Pool("data")
	if err != nil {
		t.Fatal(err)
	}
	osd, err := pool.ChunkOSD("obj", 0)
	if err != nil {
		t.Fatal(err)
	}
	return chaos, client, osd
}

func TestChaosErrorInjection(t *testing.T) {
	chaos, client, osd := chaosFixture(t, ClientConfig{})
	ctx := context.Background()
	chaos.SetRule(osd, ChaosRule{ErrorRate: 1})
	if _, _, err := client.GetChunk(ctx, "data", "obj", 0); err == nil ||
		!strings.Contains(err.Error(), ErrInjected.Error()) {
		t.Fatalf("chunk on faulted OSD: err = %v, want injected fault", err)
	}
	// A chunk on a healthy OSD is unaffected: each placement-group position
	// maps to a distinct OSD, so chunk 1 lives elsewhere.
	if _, _, err := client.GetChunk(ctx, "data", "obj", 1); err != nil {
		t.Fatalf("chunk on healthy OSD: %v", err)
	}
	chaos.ClearRule(osd)
	if _, _, err := client.GetChunk(ctx, "data", "obj", 0); err != nil {
		t.Fatalf("after ClearRule: %v", err)
	}
	if st := chaos.Stats(); st.ErrorsInjected == 0 {
		t.Fatalf("chaos stats = %+v, want injected errors counted", st)
	}
}

func TestChaosLatencyInjection(t *testing.T) {
	chaos, client, osd := chaosFixture(t, ClientConfig{})
	ctx := context.Background()
	chaos.SetRule(osd, ChaosRule{Latency: 80 * time.Millisecond, Jitter: 20 * time.Millisecond})
	start := time.Now()
	if _, _, err := client.GetChunk(ctx, "data", "obj", 0); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < 80*time.Millisecond {
		t.Fatalf("faulted chunk served in %v, want >= 80ms injected latency", elapsed)
	}
	start = time.Now()
	if _, _, err := client.GetChunk(ctx, "data", "obj", 1); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 60*time.Millisecond {
		t.Fatalf("healthy chunk served in %v, injected latency leaked", elapsed)
	}
	if st := chaos.Stats(); st.DelaysInjected == 0 {
		t.Fatalf("chaos stats = %+v, want delays counted", st)
	}
}

func TestChaosAsymmetricPartition(t *testing.T) {
	chaos, client, osd := chaosFixture(t, ClientConfig{Retries: -1})
	ctx := context.Background()

	// Request half dropped: the client never hears back and burns its
	// deadline.
	chaos.SetRule(osd, ChaosRule{DropRequests: true})
	qctx, qcancel := context.WithTimeout(ctx, 100*time.Millisecond)
	if _, _, err := client.GetChunk(qctx, "data", "obj", 0); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("dropped request: err = %v, want DeadlineExceeded", err)
	}
	qcancel()

	// Reply half dropped: the server executes the request, the response
	// vanishes.
	chaos.SetRule(osd, ChaosRule{DropReplies: true})
	qctx, qcancel = context.WithTimeout(ctx, 100*time.Millisecond)
	if _, _, err := client.GetChunk(qctx, "data", "obj", 0); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("dropped reply: err = %v, want DeadlineExceeded", err)
	}
	qcancel()

	st := chaos.Stats()
	if st.RequestsDropped == 0 || st.RepliesDropped == 0 {
		t.Fatalf("chaos stats = %+v, want both partition halves counted", st)
	}
	chaos.Reset()
	if _, _, err := client.GetChunk(ctx, "data", "obj", 0); err != nil {
		t.Fatalf("after Reset: %v", err)
	}
}

func TestChaosStall(t *testing.T) {
	chaos, client, osd := chaosFixture(t, ClientConfig{Retries: -1})
	chaos.SetRule(osd, ChaosRule{Stall: 5 * time.Second})
	qctx, qcancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer qcancel()
	start := time.Now()
	if _, _, err := client.GetChunk(qctx, "data", "obj", 0); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("stalled chunk: err = %v, want DeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed < 90*time.Millisecond {
		t.Fatalf("stall failed fast (%v); a stall must burn the client's deadline", elapsed)
	}
	if st := chaos.Stats(); st.Stalls == 0 {
		t.Fatalf("chaos stats = %+v, want stalls counted", st)
	}
}

func TestChaosHangNewConns(t *testing.T) {
	cluster := testClusterWithService(t, 0.0001)
	chaos := NewChaos(1)
	srv := NewServerWithConfig(cluster, ServerConfig{Chaos: chaos})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })

	healthy, err := DialConfig(addr, ClientConfig{Conns: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = healthy.Close() })
	ctx := context.Background()
	seed(t, cluster, "obj", make([]byte, 3000))
	// A dial returns once the kernel queued the connection, which may be
	// before the server accepted it; one answered request proves it was.
	if _, _, err := healthy.GetChunk(ctx, "data", "obj", 0); err != nil {
		t.Fatal(err)
	}

	chaos.SetHangNewConns(true)
	hung := NewClient(addr, ClientConfig{Conns: 1, Retries: -1})
	t.Cleanup(func() { _ = hung.Close() })
	qctx, qcancel := context.WithTimeout(ctx, 100*time.Millisecond)
	defer qcancel()
	if _, _, err := hung.GetChunk(qctx, "data", "obj", 0); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("request on hung conn: err = %v, want DeadlineExceeded", err)
	}
	// Connections accepted before the hang keep working.
	if _, _, err := healthy.GetChunk(ctx, "data", "obj", 0); err != nil {
		t.Fatalf("pre-hang connection broken: %v", err)
	}
	if st := chaos.Stats(); st.ConnsHung == 0 {
		t.Fatalf("chaos stats = %+v, want hung conns counted", st)
	}
	chaos.SetHangNewConns(false)
	fresh, err := DialConfig(addr, ClientConfig{Conns: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = fresh.Close() })
	if _, _, err := fresh.GetChunk(ctx, "data", "obj", 0); err != nil {
		t.Fatalf("after unhang: %v", err)
	}
}
