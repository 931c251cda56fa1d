package main

import (
	"bytes"
	"context"
	"reflect"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"sprout/internal/cluster"
	"sprout/internal/router"
	"sprout/internal/transport"
)

func TestParseOSDEvents(t *testing.T) {
	for _, tc := range []struct {
		name, spec string
		want       []osdEvent
		wantErr    string
	}{
		{name: "empty spec", spec: ""},
		{name: "one event", spec: "500ms:2", want: []osdEvent{{500 * time.Millisecond, []int{2}}}},
		{name: "several events and ids", spec: "500ms:2,5; 1s: 7", want: []osdEvent{
			{500 * time.Millisecond, []int{2, 5}}, {time.Second, []int{7}},
		}},
		{name: "malformed part", spec: "500ms", wantErr: "want duration:id"},
		{name: "empty part", spec: "500ms:2;", wantErr: "want duration:id"},
		{name: "bad duration", spec: "soon:2", wantErr: "invalid duration"},
		{name: "bad id", spec: "1s:two", wantErr: "invalid syntax"},
		{name: "missing id", spec: "1s:2,", wantErr: "invalid syntax"},
	} {
		got, err := parseOSDEvents(tc.spec)
		if tc.wantErr != "" {
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("%s: parseOSDEvents(%q) error = %v, want one containing %q", tc.name, tc.spec, err, tc.wantErr)
			}
			continue
		}
		if err != nil || !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: parseOSDEvents(%q) = %v, %v; want %v", tc.name, tc.spec, got, err, tc.want)
		}
	}
}

func TestParseChaosRules(t *testing.T) {
	if chaos, err := parseChaosRules(""); chaos != nil || err != nil {
		t.Fatalf("empty spec = %v, %v; want no chaos layer at all", chaos, err)
	}
	for _, tc := range []struct{ name, spec, wantErr string }{
		{"malformed part", "2", "want osd:kind"},
		{"bad id", "x:drop", "invalid syntax"},
		{"bad duration", "2:lat=fast", "invalid duration"},
		{"bad stall", "2:stall=", "invalid duration"},
		{"bad error rate", "2:err=often", "invalid syntax"},
		{"error rate above one", "2:err=1.5", "outside [0, 1]"},
		{"negative error rate", "2:err=-0.1", "outside [0, 1]"},
		{"unknown kind", "2:explode", "unknown kind"},
	} {
		if chaos, err := parseChaosRules(tc.spec); err == nil || chaos != nil || !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("%s: parseChaosRules(%q) = %v, %v; want an error containing %q", tc.name, tc.spec, chaos, err, tc.wantErr)
		}
	}

	// Several rules naming one OSD merge into one rule.
	chaos, err := parseChaosRules("2:lat=30ms; 2:jitter=5ms;2:err=0.2;5:stall=1s;7:drop;7:dropreply")
	if err != nil {
		t.Fatal(err)
	}
	for osd, want := range map[int]transport.ChaosRule{
		2: {Latency: 30 * time.Millisecond, Jitter: 5 * time.Millisecond, ErrorRate: 0.2},
		5: {Stall: time.Second},
		7: {DropRequests: true, DropReplies: true},
	} {
		if got, ok := chaos.Rule(osd); !ok || got != want {
			t.Errorf("OSD %d rule = %+v (set %v), want %+v", osd, got, ok, want)
		}
	}
	if _, ok := chaos.Rule(3); ok {
		t.Error("OSD 3 has a rule nobody asked for")
	}
}

// syncBuffer is an output sink the command's goroutines may share with the
// test.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// eventually polls cond until it holds or the deadline passes.
func eventually(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting until %s", what)
		}
	}
}

// smallArgs keeps the working set small enough for -race on a shared box.
var smallArgs = []string{"-objects", "8", "-size", "8192", "-clients", "4"}

// TestCtrlModeReplansEveryShard runs -mode ctrl with one and with two shard
// controllers through an OSD failure and recovery: the command succeeds,
// serves reads, and every shard re-plans after the membership change — on a
// scheduler the shards share, where one shard's jobs used to replace the
// others'.
func TestCtrlModeReplansEveryShard(t *testing.T) {
	for _, controllers := range []string{"1", "2"} {
		t.Run("controllers="+controllers, func(t *testing.T) {
			args := append([]string{"-mode", "ctrl", "-controllers", controllers,
				"-duration", "300ms", "-fail", "100ms:2", "-recover", "200ms:2"}, smallArgs...)
			var out syncBuffer
			if err := run(context.Background(), args, &out); err != nil {
				t.Fatalf("run: %v\n%s", err, out.String())
			}
			m := regexp.MustCompile(`served (\d+) reads`).FindStringSubmatch(out.String())
			if m == nil || m[1] == "0" {
				t.Fatalf("no reads served:\n%s", out.String())
			}

			// The same plane, held open so its controllers can be watched.
			o, err := parseFlags(args)
			if err != nil {
				t.Fatal(err)
			}
			st, err := newStack(context.Background(), o, o.objects, "")
			if err != nil {
				t.Fatal(err)
			}
			defer st.Close()
			p, err := newPlane(context.Background(), st, o, nil)
			if err != nil {
				t.Fatal(err)
			}
			defer p.Close()
			if err := p.serveReaders(context.Background(), o, &out); err != nil {
				t.Fatal(err)
			}
			if want, _ := strconv.Atoi(controllers); len(p.ctrls) != want {
				t.Fatalf("%d controllers, want %d", len(p.ctrls), want)
			}
			for i, ctrl := range p.ctrls {
				eventually(t, shardID(i)+" re-plans after the membership change", func() bool {
					return ctrl.Stats().AutoReplans >= 1
				})
				if got := ctrl.Stats().MembershipChanges; got != 2 {
					t.Errorf("%s saw %d membership changes, want 2", shardID(i), got)
				}
			}
		})
	}
}

// TestRunRejectsNegativeHedgeDelay: a serving knob the controller rejects
// ends run with that error instead of being replaced by a default.
func TestRunRejectsNegativeHedgeDelay(t *testing.T) {
	args := append([]string{"-mode", "ctrl", "-hedge-delay", "-1ms", "-duration", "100ms"}, smallArgs...)
	var out syncBuffer
	err := run(context.Background(), args, &out)
	if err == nil || !strings.Contains(err.Error(), "negative HedgeDelay") {
		t.Fatalf("run = %v, want the negative HedgeDelay error\n%s", err, out.String())
	}
}

// planeGoroutines counts goroutines running transport, router or core code.
func planeGoroutines() int {
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	n := 0
	for _, g := range strings.Split(string(buf), "\n\n") {
		if strings.Contains(g, "sprout/internal/transport.") || strings.Contains(g, "sprout/internal/router.") ||
			strings.Contains(g, "sprout/internal/core.") {
			n++
		}
	}
	return n
}

// TestServeModeShardEndpoints runs -mode serve -controllers 2: the shard
// controllers are built from the command's flags (cache budget split over the
// shards, hedging on), a remote router that learnt the membership from one
// endpoint reads every object byte-exactly through the endpoints, and
// cancelling the context stops every goroutine the command started.
func TestServeModeShardEndpoints(t *testing.T) {
	before := planeGoroutines()
	args := append([]string{"-mode", "serve", "-controllers", "2", "-cache", "8", "-hedge-delay", "5ms"}, smallArgs...)
	o, err := parseFlags(args)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	var out syncBuffer
	s, err := startServe(ctx, o, &out)
	if err != nil {
		t.Fatal(err)
	}
	stopped := false
	defer func() {
		if !stopped {
			s.Close(&out)
		}
	}()
	if len(s.plane.ctrls) != 2 || len(s.plane.endpoints) != 2 {
		t.Fatalf("%d controllers behind %d endpoints, want 2 and 2", len(s.plane.ctrls), len(s.plane.endpoints))
	}
	for i, ctrl := range s.plane.ctrls {
		if got := ctrl.Cache().Capacity(); got != 4 {
			t.Errorf("%s cache capacity = %d chunks, want -cache 8 split over 2 shards", shardID(i), got)
		}
	}

	remote := router.New(router.Options{})
	defer remote.Close()
	if added, err := remote.SyncMembership(ctx, s.plane.endpoints[0].Addr()); err != nil || added != 2 {
		t.Fatalf("SyncMembership = %d, %v; want both shards", added, err)
	}
	readAll := func() {
		for fileID := 0; fileID < o.objects; fileID++ {
			want, err := s.st.Pool.Get(ctx, cluster.ObjectName(fileID))
			if err != nil {
				t.Fatal(err)
			}
			got, err := remote.Read(ctx, fileID, nil)
			if err != nil {
				t.Fatalf("remote read of file %d: %v", fileID, err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("file %d through %s differs from the stored object", fileID, remote.OwnerOf(fileID))
			}
		}
	}
	readAll()
	// -hedge-delay reached every shard: with a 5 ms timer over OSDs whose
	// service time is 2 ms plus an exponential tail, storage reads launch
	// hedges; with the zero ServeOptions the endpoints used to get, none can.
	for i, ctrl := range s.plane.ctrls {
		eventually(t, shardID(i)+" launches a hedge", func() bool {
			readAll()
			return ctrl.Stats().HedgesLaunched > 0
		})
	}

	// The command itself: up, then down on cancel with nothing left behind.
	_ = remote.Close()
	s.Close(&out)
	stopped = true
	runCtx, cancel := context.WithCancel(ctx)
	done := make(chan error, 1)
	var runOut syncBuffer
	go func() { done <- run(runCtx, args, &runOut) }()
	eventually(t, "both shard endpoints are announced", func() bool {
		return strings.Count(runOut.String(), "serving controller ops on") == 2
	})
	cancel()
	if err := <-done; err != nil {
		t.Fatalf("run after cancel: %v", err)
	}
	eventually(t, "no transport, router or core goroutine is left", func() bool {
		return planeGoroutines() <= before
	})
}
