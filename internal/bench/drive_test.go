package bench

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"sync"
	"testing"
	"time"

	"sprout/internal/core"
	"sprout/internal/resilience"
)

func TestClosedLoopSpendsBudgetOnce(t *testing.T) {
	var mu sync.Mutex
	seen := map[int]int{}
	res := closedLoop{workers: 4, ops: 100}.run(context.Background(), func(_ *rand.Rand, i int) error {
		mu.Lock()
		seen[i]++
		mu.Unlock()
		return nil
	})
	calls := 0
	for i, n := range seen {
		if n != 1 || i < 0 || i >= 100 {
			t.Fatalf("op %d called %d times", i, n)
		}
		calls += n
	}
	if calls != 100 || len(res.lats) != 100 {
		t.Fatalf("%d calls, %d latencies; want 100 of each", calls, len(res.lats))
	}
}

func TestClosedLoopOpsEachIsPerWorker(t *testing.T) {
	// One worker's ops are shed at once while the others' take a while:
	// with a per-worker budget the fast worker still makes only its share.
	var mu sync.Mutex
	calls := map[*rand.Rand]int{}
	var fast *rand.Rand
	res := closedLoop{workers: 4, opsEach: 25}.run(context.Background(), func(r *rand.Rand, _ int) error {
		mu.Lock()
		if fast == nil {
			fast = r
		}
		calls[r]++
		isFast := r == fast
		mu.Unlock()
		if isFast {
			return core.ErrSaturated
		}
		time.Sleep(100 * time.Microsecond)
		return nil
	})
	if len(calls) != 4 {
		t.Fatalf("%d workers called the op, want 4", len(calls))
	}
	for _, n := range calls {
		if n != 25 {
			t.Fatalf("a worker made %d calls, want 25", n)
		}
	}
	if res.sheds != 25 || len(res.lats) != 75 {
		t.Fatalf("sheds %d, ok %d; want 25, 75", res.sheds, len(res.lats))
	}
}

func TestClosedLoopStopsWithContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var once sync.Once
	res := closedLoop{workers: 4}.run(ctx, func(_ *rand.Rand, i int) error {
		if i >= 50 {
			once.Do(cancel)
		}
		return nil
	})
	// Each worker finishes the op it holds when the context ends.
	if n := len(res.lats); n < 51 || n > 55 {
		t.Fatalf("cancelled loop ran %d ops, want 51 to 55", n)
	}

	dctx, dcancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer dcancel()
	res = closedLoop{workers: 2, pace: time.Millisecond}.run(dctx, func(*rand.Rand, int) error { return nil })
	if len(res.lats) == 0 || res.elapsed > time.Second {
		t.Fatalf("deadline loop ran %d ops in %v", len(res.lats), res.elapsed)
	}
}

func TestClosedLoopClassifiesFailures(t *testing.T) {
	results := []error{
		fmt.Errorf("core: file 3: %w", core.ErrSaturated),
		fmt.Errorf("transport: node 2: %w", resilience.ErrOverload),
		io.EOF,
		nil,
	}
	res := closedLoop{workers: 1, ops: len(results)}.run(context.Background(), func(_ *rand.Rand, i int) error {
		return results[i]
	})
	if res.sheds != 2 || res.errs != 1 || !errors.Is(res.err, io.EOF) || len(res.lats) != 1 {
		t.Fatalf("sheds %d, errs %d (first %v), ok %d; want 2, 1 (EOF), 1", res.sheds, res.errs, res.err, len(res.lats))
	}
}

func TestPct(t *testing.T) {
	lats := make([]time.Duration, 100)
	for i := range lats {
		lats[i] = time.Duration(i+1) * time.Millisecond
	}
	if p50, p99 := pct(lats, 0.50), pct(lats, 0.99); p50 != 50 || p99 != 99 {
		t.Fatalf("p50 %v ms, p99 %v ms; want 50, 99", p50, p99)
	}
	if pct(nil, 0.99) != 0 {
		t.Fatal("pct of no samples must be 0")
	}
}
