package bench

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"sprout/internal/cluster"
	"sprout/internal/core"
	"sprout/internal/erasure"
	"sprout/internal/optimizer"
	"sprout/internal/resilience"
	"sprout/internal/workload"
)

// ReadResult measures the controller serving path at one configuration:
// fetch mode × concurrent readers × cache warmth.
type ReadResult struct {
	Cache     string // "cold" (no cache) or "warm" (planned + prefetched)
	Mode      string // "par" or "hedge"
	Readers   int
	Ops       int
	OpsPerSec float64
	P50ms     float64
	P99ms     float64
	// CacheShare is the fraction of chunks served from the functional cache.
	CacheShare float64
	Hedges     int64
	HedgeWins  int64
}

// LatencyStore serves precomputed coded chunks with an emulated storage
// service time: a shifted-exponential base delay plus occasional stragglers,
// honouring context cancellation so hedged fetches can be abandoned. It
// backs the read experiment and the examples' live-serving demos. SetFile
// replaces a file's stripe under a new version, emulating an ingest: the
// store is version-aware (core.VersionedChunkFetcher), so controller reads
// racing a re-ingest detect the flip instead of decoding a mixed stripe.
type LatencyStore struct {
	// Chunks holds the payloads: Chunks[fileID][chunkIndex]. Mutated only by
	// SetFile, under mu.
	Chunks [][][]byte
	// Shift is the minimum service time; Mean the mean of the exponential
	// part on top of it.
	Shift time.Duration
	Mean  time.Duration
	// StragglerP is the probability a fetch is a straggler, delayed by
	// StragglerX times.
	StragglerP float64
	StragglerX float64

	mu    sync.Mutex
	rng   *rand.Rand
	vers  []uint64
	sizes []int
	seq   uint64
}

// NewLatencyStore builds a store over the chunk corpus with the given delay
// profile.
func NewLatencyStore(chunks [][][]byte, seed int64, shift, mean time.Duration, stragglerP, stragglerX float64) *LatencyStore {
	return &LatencyStore{
		Chunks:     chunks,
		Shift:      shift,
		Mean:       mean,
		StragglerP: stragglerP,
		StragglerX: stragglerX,
		rng:        rand.New(rand.NewSource(seed)),
		vers:       make([]uint64, len(chunks)),
		sizes:      make([]int, len(chunks)),
	}
}

// SetFile atomically replaces a file's coded chunks with a new stripe and
// returns the stripe version readers will see (an emulated ingest/overwrite).
func (s *LatencyStore) SetFile(fileID int, chunks [][]byte, size int) uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.Chunks[fileID] = chunks
	s.seq++
	s.vers[fileID] = s.seq
	s.sizes[fileID] = size
	return s.seq
}

// FetchChunk implements core.ChunkFetcher.
func (s *LatencyStore) FetchChunk(ctx context.Context, fileID, chunkIndex, nodeID int) ([]byte, error) {
	data, _, err := s.FetchChunkV(ctx, fileID, chunkIndex, nodeID)
	return data, err
}

// FetchChunkV implements core.VersionedChunkFetcher: the chunk payload and
// the stripe version it belongs to are read under one lock, so a SetFile
// racing the fetch can never pair new bytes with the old version.
func (s *LatencyStore) FetchChunkV(ctx context.Context, fileID, chunkIndex, _ int) ([]byte, core.StripeInfo, error) {
	s.mu.Lock()
	d := s.Shift + time.Duration(s.rng.ExpFloat64()*float64(s.Mean))
	if s.StragglerP > 0 && s.rng.Float64() < s.StragglerP {
		d = time.Duration(float64(d) * s.StragglerX)
	}
	s.mu.Unlock()
	if err := resilience.Sleep(ctx, d); err != nil {
		return nil, core.StripeInfo{}, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	file := s.Chunks[fileID]
	if chunkIndex >= len(file) {
		return nil, core.StripeInfo{}, fmt.Errorf("bench: no chunk %d of file %d", chunkIndex, fileID)
	}
	return file[chunkIndex], core.StripeInfo{Version: s.vers[fileID], Size: s.sizes[fileID]}, nil
}

// instantStore serves the same chunks with no delay (used to prefetch warm
// caches without paying the emulated latency, and by the hotpath allocation
// counts).
type instantStore struct{ chunks [][][]byte }

func (s *instantStore) FetchChunk(_ context.Context, fileID, chunkIndex, _ int) ([]byte, error) {
	file := s.chunks[fileID]
	if chunkIndex >= len(file) {
		return nil, fmt.Errorf("bench: no chunk %d of file %d", chunkIndex, fileID)
	}
	return file[chunkIndex], nil
}

// StartFetches implements core.AsyncChunkFetcher, completing every fetch
// inside the call, so reads through it take the completion path production
// fetchers take and the hotpath allocation counts measure that path.
func (s *instantStore) StartFetches(ctx context.Context, fileID int, refs []core.FetchRef) {
	for _, ref := range refs {
		data, err := s.FetchChunk(ctx, fileID, ref.ChunkIndex, ref.NodeID)
		ref.Sink.FetchDone(data, core.StripeInfo{}, err)
	}
}

// readServeOptions maps an experiment mode to controller serving options.
func readServeOptions(mode string) (core.ServeOptions, error) {
	switch mode {
	case "par":
		return core.ServeOptions{}, nil
	case "hedge":
		return core.ServeOptions{HedgeDelay: 4 * time.Millisecond, HedgeExtra: 2}, nil
	default:
		return core.ServeOptions{}, fmt.Errorf("bench: unknown read mode %q", mode)
	}
}

// ReadThroughput drives the controller end to end — scheduling, cache
// lookups, concurrent chunk fetches against an emulated-latency store, and
// decode — and A/Bs the parallel read plane with and without hedging across
// reader counts and cache warmth.
func ReadThroughput(cfg Config) ([]ReadResult, error) {
	cfg = cfg.withDefaults()
	files := cfg.Files
	if files > 200 {
		files = 200 // bounds the per-point optimizer cost
	}
	opsBase := 250
	if cfg.Files >= 1000 {
		opsBase = 1000
	}

	clu, lambdas, err := readCluster(files, readFileSize, cfg.Seed)
	if err != nil {
		return nil, err
	}
	chunks, err := encodeReadCorpus(clu, cfg.Seed)
	if err != nil {
		return nil, err
	}
	var out []ReadResult
	for _, cache := range []struct {
		name     string
		capacity int
	}{{"cold", 0}, {"warm", 2 * files}} {
		for _, mode := range []string{"par", "hedge"} {
			for _, readers := range []int{1, 4, 16} {
				ops := opsBase * readers
				if ops > 8*opsBase {
					ops = 8 * opsBase
				}
				res, err := readPoint(clu, lambdas, chunks, cfg, cache.capacity, mode, readers, ops)
				if err != nil {
					return nil, err
				}
				res.Cache = cache.name
				out = append(out, res)
			}
		}
	}
	return out, nil
}

// readFileSize is the file size of the read, autoscale and hotpath clusters.
const readFileSize = 32 << 10

// readCluster builds the experiment cluster: 12 paper-rate storage nodes, a
// (7,4) code, and Zipf(1.1) popularity over files of size bytes each.
func readCluster(files int, size, seed int64) (*cluster.Cluster, []float64, error) {
	cfg := cluster.Config{
		NumNodes:     12,
		NumFiles:     files,
		N:            7,
		K:            4,
		FileSize:     size,
		ServiceRates: append([]float64(nil), cluster.PaperServiceRates...),
		Seed:         seed,
	}
	clu, err := cfg.Build()
	if err != nil {
		return nil, nil, err
	}
	lambdas := workload.Zipf(files, 1.1, 0.2)
	clu, err = clu.WithArrivalRates(lambdas)
	if err != nil {
		return nil, nil, err
	}
	return clu, lambdas, nil
}

// encodeReadCorpus encodes every file's payload into its coded chunks.
func encodeReadCorpus(clu *cluster.Cluster, seed int64) ([][][]byte, error) {
	rng := rand.New(rand.NewSource(seed + 2))
	chunks := make([][][]byte, len(clu.Files))
	for i, f := range clu.Files {
		code, err := erasure.New(f.N, f.K)
		if err != nil {
			return nil, err
		}
		payload := make([]byte, f.SizeBytes)
		rng.Read(payload)
		dataChunks, err := code.Split(payload)
		if err != nil {
			return nil, err
		}
		coded, err := code.Encode(dataChunks)
		if err != nil {
			return nil, err
		}
		chunks[i] = coded
	}
	return chunks, nil
}

// zipfSequence samples a request sequence proportional to the per-file
// rates.
func zipfSequence(rng *rand.Rand, lambdas []float64, n int) []int {
	picker := workload.NewRatePicker(lambdas)
	seq := make([]int, n)
	for i := range seq {
		seq[i] = picker.Pick(rng.Float64())
	}
	return seq
}

// readPoint measures one (capacity, mode, readers) cell.
func readPoint(clu *cluster.Cluster, lambdas []float64, chunks [][][]byte, cfg Config, capacity int, mode string, readers, totalOps int) (ReadResult, error) {
	serve, err := readServeOptions(mode)
	if err != nil {
		return ReadResult{}, err
	}
	ctrl, err := core.NewControllerWith(clu, capacity, optimizer.Options{}, serve, cfg.Seed)
	if err != nil {
		return ReadResult{}, err
	}
	defer ctrl.Close()
	if _, err := ctrl.PlanTimeBin(lambdas); err != nil {
		return ReadResult{}, err
	}
	ctx := context.Background()
	if capacity > 0 {
		if err := ctrl.PrefetchCache(ctx, &instantStore{chunks: chunks}); err != nil {
			return ReadResult{}, err
		}
	}
	store := NewLatencyStore(chunks, cfg.Seed+3, 500*time.Microsecond, time.Millisecond, 0.03, 8)
	requests := zipfSequence(rand.New(rand.NewSource(cfg.Seed+4)), lambdas, totalOps)

	res := closedLoop{workers: readers, ops: totalOps}.run(ctx, func(_ *rand.Rand, i int) error {
		_, err := ctrl.Read(ctx, requests[i], store)
		return err
	})
	if res.err != nil {
		return ReadResult{}, res.err
	}
	stats := ctrl.Stats()
	var share float64
	if total := stats.ChunksFromCache + stats.ChunksFromDisk; total > 0 {
		share = float64(stats.ChunksFromCache) / float64(total)
	}
	return ReadResult{
		Mode:       mode,
		Readers:    readers,
		Ops:        len(res.lats),
		OpsPerSec:  res.opsPerSec(),
		P50ms:      pct(res.lats, 0.50),
		P99ms:      pct(res.lats, 0.99),
		CacheShare: share,
		Hedges:     stats.HedgesLaunched,
		HedgeWins:  stats.HedgeWins,
	}, nil
}

// ReadTable renders ReadThroughput results, with the speedup of hedging over
// the plain parallel fan-out at matching cache warmth and concurrency.
func ReadTable(results []ReadResult) *Table {
	t := &Table{
		Title:   "controller serving path: parallel vs hedged chunk fetches",
		Headers: []string{"cache", "mode", "readers", "ops", "ops/s", "p50 ms", "p99 ms", "speedup", "cache%", "hedges", "wins"},
		Notes: []string{
			"store emulates 0.5ms+Exp(1ms) per chunk fetch with 3% stragglers at 8x",
			"par fans fetches out; hedge adds 4ms/2-extra hedging",
			"warm points plan + prefetch the functional cache before measuring",
		},
	}
	base := make(map[string]float64)
	for _, r := range results {
		if r.Mode == "par" {
			base[fmt.Sprintf("%s/%d", r.Cache, r.Readers)] = r.OpsPerSec
		}
	}
	for _, r := range results {
		speedup := "1.00x"
		if b := base[fmt.Sprintf("%s/%d", r.Cache, r.Readers)]; b > 0 && r.Mode != "par" {
			speedup = fmt.Sprintf("%.2fx", r.OpsPerSec/b)
		}
		t.AddRow(
			r.Cache,
			r.Mode,
			itoa(r.Readers),
			itoa(r.Ops),
			fmt.Sprintf("%.0f", r.OpsPerSec),
			fmt.Sprintf("%.2f", r.P50ms),
			fmt.Sprintf("%.2f", r.P99ms),
			speedup,
			fmt.Sprintf("%.0f%%", 100*r.CacheShare),
			i64toa(r.Hedges),
			i64toa(r.HedgeWins),
		)
	}
	// Report the warm high-concurrency ratio: hedging must not give back the
	// parallel fan-out's throughput.
	maxReaders := 0
	for _, r := range results {
		if r.Cache == "warm" && r.Readers > maxReaders {
			maxReaders = r.Readers
		}
	}
	for _, r := range results {
		if r.Cache != "warm" || r.Readers != maxReaders {
			continue
		}
		if b := base[fmt.Sprintf("warm/%d", r.Readers)]; b > 0 && r.Mode == "hedge" {
			t.AddMetric("warm_hedge_speedup_vs_par", r.OpsPerSec/b, "ratio", true, 0)
		}
	}
	return t
}
