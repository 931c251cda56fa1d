//go:build goexperiment.synctest

package stack

import (
	"bytes"
	"context"
	"errors"
	"testing"
	"testing/synctest"
	"time"

	"sprout/internal/core"
	"sprout/internal/queue"
)

// timedSink records when its fetch completed, on synctest's virtual clock.
type timedSink struct {
	start time.Time
	done  chan timedOutcome
}

type timedOutcome struct {
	at   time.Duration
	data []byte
	info core.StripeInfo
	err  error
}

func (s *timedSink) FetchDone(data []byte, info core.StripeInfo, err error) {
	s.done <- timedOutcome{time.Since(s.start), data, info, err}
}

// TestSynctestStartFetchesCompleteAtSlotEnds: an in-process fan-out's
// completions land exactly at the ends of their slots on the OSDs' timelines
// — two reads of one chunk queue on its OSD, a read of another chunk runs
// beside them — and a read whose slot would end past ctx's deadline
// completes at the deadline with context.DeadlineExceeded.
func TestSynctestStartFetchesCompleteAtSlotEnds(t *testing.T) {
	synctest.Run(func() {
		const service = time.Millisecond // per 4 KiB chunk
		ctx := context.Background()
		st, err := New(ctx, Spec{Service: queue.Deterministic{Value: service.Seconds()}, Seed: 1, Objects: 2, Size: 16 << 10})
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		chunk := func(i int) []byte {
			data, err := st.Local.FetchChunk(ctx, 1, i, 0)
			if err != nil {
				t.Fatal(err)
			}
			return data
		}
		want0, want1 := chunk(0), chunk(1)

		start := time.Now()
		sinks := make([]*timedSink, 5)
		refs := make([]core.FetchRef, len(sinks))
		for i, idx := range []int{0, 0, 1, 2, 2} {
			sinks[i] = &timedSink{start: start, done: make(chan timedOutcome, 1)}
			refs[i] = core.FetchRef{ChunkIndex: idx, Sink: sinks[i]}
		}
		st.Local.StartFetches(ctx, 1, refs[:3])
		dctx, cancel := context.WithTimeout(ctx, 3*service/2)
		defer cancel()
		st.Local.StartFetches(dctx, 1, refs[3:])

		for i, want := range []struct {
			at   time.Duration
			data []byte
			err  error
		}{{service, want0, nil}, {2 * service, want0, nil}, {service, want1, nil}, {service, nil, nil}, {3 * service / 2, nil, context.DeadlineExceeded}} {
			got := <-sinks[i].done
			if got.at != want.at || !errors.Is(got.err, want.err) || (want.err == nil && got.err != nil) {
				t.Fatalf("fetch %d completed at %v with %v, want %v with %v", i, got.at, got.err, want.at, want.err)
			}
			if want.data != nil && !bytes.Equal(got.data, want.data) {
				t.Fatalf("fetch %d delivered other bytes than the stored chunk", i)
			}
			if got.err == nil && (got.info.Version == 0 || got.info.Size != 16<<10) {
				t.Fatalf("fetch %d reported stripe %+v", i, got.info)
			}
		}
	})
}
