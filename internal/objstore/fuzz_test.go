package objstore

import (
	"bytes"
	"context"
	"testing"

	"sprout/internal/queue"
)

// FuzzStagedPut drives the server-side staging path with an arbitrary
// byte-coded operation stream — begin, stage, commit, abort, whole-object
// put, read — and then checks the two invariants a two-phase ingest plane
// must keep no matter how clients misbehave:
//
//  1. No staged-chunk leaks: after aborting every still-open put and reaping
//     deferred GC, the OSDs hold exactly N chunks per committed object.
//  2. No torn visibility: every committed object reads back as the payload
//     of its last committed put.
func FuzzStagedPut(f *testing.F) {
	f.Add([]byte{0, 1, 1, 1, 2})             // begin, stage×3, commit
	f.Add([]byte{0, 1, 3})                   // begin, stage, abort
	f.Add([]byte{4, 0, 1, 1, 4, 2, 5})       // put, begin, stages, put, commit, get
	f.Add([]byte{2, 3, 1})                   // commit/abort/stage without begin
	f.Add([]byte{0, 0, 1, 9, 1, 130, 2, 2})  // two opens, odd chunk indices, double commit
	f.Add(bytes.Repeat([]byte{0}, 20))       // many abandoned opens
	f.Add([]byte{4, 0, 1, 1, 1, 1, 1, 2, 5}) // full stripe staged then committed

	f.Fuzz(func(t *testing.T, program []byte) {
		c, err := NewCluster(ClusterConfig{
			NumOSDs:      7,
			Services:     []queue.Dist{queue.Deterministic{Value: 0}},
			RefChunkSize: 1 << 10,
			Seed:         1,
		})
		if err != nil {
			t.Fatal(err)
		}
		pool, err := c.CreatePool("ec", 5, 3)
		if err != nil {
			t.Fatal(err)
		}
		ctx := context.Background()

		const objects = 3
		objName := func(i byte) string { return string(rune('a' + i%objects)) }
		model := make(map[string][]byte) // last committed payload per object

		// open tracks the versions the "client" remembers having begun, in
		// order; stage/commit/abort ops pick from it.
		type openPut struct {
			object  string
			version uint64
			size    int
			staged  int
			storage [][]byte // properly encoded stripe to stage from
			joined  []byte   // the payload the stripe decodes to
		}
		var open []openPut

		payload := func(tag byte, size int) []byte {
			p := make([]byte, size)
			for i := range p {
				p[i] = tag ^ byte(i)
			}
			return p
		}
		encode := func(tag byte, size int) (storage [][]byte, joined []byte) {
			data := payload(tag, size)
			dataChunks, err := pool.Code().Split(data)
			if err != nil {
				t.Fatal(err)
			}
			storage, err = pool.Code().Encode(dataChunks)
			if err != nil {
				t.Fatal(err)
			}
			return storage, data
		}

		for pc := 0; pc < len(program); pc++ {
			op := program[pc]
			arg := byte(0)
			if pc+1 < len(program) {
				arg = program[pc+1]
			}
			switch op % 6 {
			case 0: // begin
				obj := objName(arg)
				version, err := pool.BeginPut(obj)
				if err != nil {
					t.Fatalf("begin: %v", err)
				}
				size := 600 + int(arg)*7
				storage, joined := encode(byte(version), size)
				open = append(open, openPut{object: obj, version: version, size: size, storage: storage, joined: joined})
			case 1: // stage the next chunk of the most recent open put
				if len(open) == 0 {
					continue
				}
				p := &open[len(open)-1]
				chunk := p.staged
				if chunk >= pool.N {
					chunk = int(arg) % pool.N // restage somewhere
				}
				err := pool.StageChunk(ctx, p.object, p.version, chunk, p.storage[chunk])
				if err != nil {
					t.Fatalf("stage %s v%d chunk %d: %v", p.object, p.version, chunk, err)
				}
				if chunk == p.staged {
					p.staged++
				}
			case 2: // commit the most recent open put (may legally fail)
				if len(open) == 0 {
					// Committing a version that was never begun must fail
					// cleanly and change nothing.
					if err := pool.CommitObject(objName(arg), uint64(arg)+1000, 600); err == nil {
						t.Fatal("commit of unknown staged put succeeded")
					}
					continue
				}
				p := open[len(open)-1]
				open = open[:len(open)-1]
				err := pool.CommitObject(p.object, p.version, p.size)
				if err == nil {
					// Committed: the model advances unless a newer version of
					// this object was committed already (monotonic commits).
					if cur, _ := pool.Version(p.object); cur == p.version {
						model[p.object] = p.joined
					}
				} else if p.staged >= pool.N {
					t.Fatalf("commit of fully staged %s v%d: %v", p.object, p.version, err)
				}
			case 3: // abort the oldest open put
				if len(open) == 0 {
					if err := pool.AbortPut(objName(arg), uint64(arg)+2000); err != nil {
						t.Fatalf("abort of unknown put: %v", err)
					}
					continue
				}
				p := open[0]
				open = open[1:]
				if err := pool.AbortPut(p.object, p.version); err != nil {
					t.Fatalf("abort: %v", err)
				}
			case 4: // whole-object put through the public path
				obj := objName(arg)
				data := payload(arg|128, 500+int(arg))
				if _, err := pool.PutV(ctx, obj, data); err != nil {
					t.Fatalf("put: %v", err)
				}
				model[obj] = data
			case 5: // read and verify against the model
				obj := objName(arg)
				want, exists := model[obj]
				got, err := pool.Get(ctx, obj)
				if !exists {
					if err == nil {
						t.Fatalf("get of never-committed %s succeeded", obj)
					}
					continue
				}
				if err != nil {
					t.Fatalf("get %s: %v", obj, err)
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("get %s: staged or stale bytes became visible", obj)
				}
			}
		}

		// Abort everything still open (including puts the driver forgot) and
		// force deferred GC; the OSDs must then hold exactly the committed
		// stripes and nothing else.
		pool.AbortStaleStaged(0)
		pool.ReapPrevious()
		if staged := pool.StagedPuts(); staged != 0 {
			t.Fatalf("%d staged puts survived AbortStaleStaged", staged)
		}
		total := 0
		for _, osd := range c.OSDs() {
			total += osd.NumChunks()
		}
		if want := len(pool.Objects()) * pool.N; total != want {
			t.Fatalf("%d chunks on OSDs for %d committed objects (want %d): staged or superseded chunks leaked",
				total, len(pool.Objects()), want)
		}
		for obj, want := range model {
			got, err := pool.Get(ctx, obj)
			if err != nil {
				t.Fatalf("final get %s: %v", obj, err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("final get %s mismatches last committed put", obj)
			}
		}
	})
}
