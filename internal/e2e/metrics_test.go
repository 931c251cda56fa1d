package e2e

import (
	"context"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"sprout/internal/core"
	"sprout/internal/metrics"
	"sprout/internal/obs"
	"sprout/internal/transport"
)

// TestMetricsEndpoint serves the bridged registry over HTTP — the same wiring
// as sproutstore -metrics — and scrapes it repeatedly while concurrent
// readers, an OSD failure, and the repair plane churn the stack underneath.
// Every scrape must parse under the strict exposition parser, pass the
// conformance lint, and show monotonically increasing read counters.
func TestMetricsEndpoint(t *testing.T) {
	h, _ := newHarnessWith(t, core.ServeOptions{
		Admission:      &core.AdmissionConfig{},
		ReplanInterval: 200 * time.Millisecond,
	},
		transport.ServerConfig{StagedPutTTL: time.Minute},
		transport.ClientConfig{Conns: 3})
	reg := obs.NewRegistry(obs.Sources{
		Controllers:      []obs.ShardSource{{Shard: "shard-0", Controller: h.ctrl}},
		TransportServers: []obs.TransportSource{{Server: "store", Stats: h.Server.Stats}},
		Repair:           h.repair.Stats,
		OSDHealth:        h.Cluster.Health,
	})
	if issues := metrics.Lint(reg); len(issues) != 0 {
		t.Fatalf("live registry fails conformance:\n  %s", strings.Join(issues, "\n  "))
	}
	mux := http.NewServeMux()
	mux.Handle("/metrics", reg.Handler())
	srv := httptest.NewServer(mux)
	defer srv.Close()

	ctx := context.Background()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	readErrs := make([]error, 4)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w) + 51))
			for {
				select {
				case <-stop:
					return
				default:
				}
				fileID := rng.Intn(e2eObjects)
				if err := h.readAndCheck(ctx, fileID, h.payload(fileID)); err != nil {
					readErrs[w] = err
					return
				}
			}
		}(w)
	}

	scrape := func() map[string]*metrics.ParsedFamily {
		t.Helper()
		resp, err := http.Get(srv.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET /metrics: %s", resp.Status)
		}
		if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "text/plain") {
			t.Fatalf("content type = %q, want text/plain exposition", ct)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		fams, err := metrics.ParseText(strings.NewReader(string(body)))
		if err != nil {
			t.Fatalf("mid-load scrape failed strict parse: %v", err)
		}
		return fams
	}
	readsTotal := func(fams map[string]*metrics.ParsedFamily) float64 {
		fam := fams["sprout_reads_total"]
		if fam == nil {
			t.Fatal("scrape missing sprout_reads_total")
		}
		return fam.Samples[0].Value
	}

	// Scrape while the stack is healthy, then again after an OSD failure with
	// repair running — degraded reads and membership churn must not corrupt
	// the exposition.
	var prev float64
	for round := 0; round < 3; round++ {
		if round == 1 {
			h.fail(t, 2)
		}
		time.Sleep(50 * time.Millisecond)
		fams := scrape()
		for _, fam := range []string{
			"sprout_reads_total",
			"sprout_read_latency_seconds",
			"sprout_cache_used_chunks",
			"sprout_transport_requests_total",
			"sprout_repair_scans_total",
			"sprout_osd_state_info",
		} {
			if fams[fam] == nil {
				t.Errorf("round %d: scrape missing family %s", round, fam)
			}
		}
		got := readsTotal(fams)
		if got <= prev {
			t.Errorf("round %d: sprout_reads_total = %v, want > %v (load is running)", round, got, prev)
		}
		prev = got
		if round >= 1 {
			states := map[string]string{}
			for _, s := range fams["sprout_osd_state_info"].Samples {
				states[s.Labels["osd"]] = s.Labels["state"]
			}
			if states["2"] == "up" {
				t.Errorf("round %d: OSD 2 still exported as up after failure", round)
			}
		}
	}
	close(stop)
	wg.Wait()
	for w, err := range readErrs {
		if err != nil {
			t.Errorf("reader %d: %v", w, err)
		}
	}
}
