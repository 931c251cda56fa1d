package objstore

import (
	"fmt"
	"sort"

	"sprout/internal/queue"
)

// ChunkServiceMeasurement is one row of the paper's Table IV / Table V:
// measured chunk service statistics for a given chunk size.
type ChunkServiceMeasurement struct {
	ChunkSizeBytes int64
	MeanMillis     float64
	VarianceMillis float64
}

// TableIVStorage returns the published HDD-backed OSD read service-time
// measurements (mean and variance, milliseconds) per chunk size.
func TableIVStorage() []ChunkServiceMeasurement {
	const mb = int64(1) << 20
	return []ChunkServiceMeasurement{
		{ChunkSizeBytes: 1 * mb, MeanMillis: 6.6696, VarianceMillis: 0.0963},
		{ChunkSizeBytes: 4 * mb, MeanMillis: 35.8800, VarianceMillis: 2.6925},
		{ChunkSizeBytes: 16 * mb, MeanMillis: 147.8462, VarianceMillis: 388.9872},
		{ChunkSizeBytes: 64 * mb, MeanMillis: 355.0800, VarianceMillis: 1256.6100},
		{ChunkSizeBytes: 256 * mb, MeanMillis: 6758.06, VarianceMillis: 554180},
	}
}

// TableVCacheLatencies returns the published SSD cache read latencies
// (milliseconds) per chunk size.
func TableVCacheLatencies() []ChunkServiceMeasurement {
	const mb = int64(1) << 20
	return []ChunkServiceMeasurement{
		{ChunkSizeBytes: 1 * mb, MeanMillis: 1.86619},
		{ChunkSizeBytes: 4 * mb, MeanMillis: 7.35639},
		{ChunkSizeBytes: 16 * mb, MeanMillis: 30.4927},
		{ChunkSizeBytes: 64 * mb, MeanMillis: 97.0968},
		{ChunkSizeBytes: 256 * mb, MeanMillis: 349.133},
	}
}

// StorageDistFor returns a gamma service-time distribution (in seconds)
// calibrated to the Table IV measurement for the given chunk size. For chunk
// sizes between published rows the nearest row is scaled linearly.
func StorageDistFor(chunkSize int64) (queue.Dist, error) {
	return distFor(chunkSize, TableIVStorage())
}

// CacheDistFor returns a deterministic SSD read-latency distribution (in
// seconds) calibrated to Table V for the given chunk size.
func CacheDistFor(chunkSize int64) (queue.Dist, error) {
	rows := TableVCacheLatencies()
	row := nearestRow(chunkSize, rows)
	scale := float64(chunkSize) / float64(row.ChunkSizeBytes)
	return queue.Deterministic{Value: row.MeanMillis / 1000 * scale}, nil
}

func distFor(chunkSize int64, rows []ChunkServiceMeasurement) (queue.Dist, error) {
	row := nearestRow(chunkSize, rows)
	g, err := queue.GammaFromMeanVar(row.MeanMillis/1000, row.VarianceMillis/1e6)
	if err != nil {
		return nil, fmt.Errorf("objstore: calibrating %d-byte chunks: %w", chunkSize, err)
	}
	scale := float64(chunkSize) / float64(row.ChunkSizeBytes)
	if scale == 1 {
		return g, nil
	}
	return queue.Scaled{Base: g, Factor: scale}, nil
}

func nearestRow(chunkSize int64, rows []ChunkServiceMeasurement) ChunkServiceMeasurement {
	sorted := append([]ChunkServiceMeasurement(nil), rows...)
	sort.Slice(sorted, func(a, b int) bool { return sorted[a].ChunkSizeBytes < sorted[b].ChunkSizeBytes })
	best := sorted[0]
	for _, r := range sorted {
		if absInt64(r.ChunkSizeBytes-chunkSize) < absInt64(best.ChunkSizeBytes-chunkSize) {
			best = r
		}
	}
	return best
}

func absInt64(v int64) int64 {
	if v < 0 {
		return -v
	}
	return v
}
