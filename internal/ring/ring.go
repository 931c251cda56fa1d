// Package ring holds the telemetry snapshot of a work queue. The queue
// itself is internal/wfq; this type lives apart so the metrics exporter
// (internal/obs) and the repository benchmark can read a queue's counters
// without depending on the queue's element type.
package ring

// Stats is a point-in-time telemetry snapshot of a work queue.
type Stats struct {
	Pushes  int64 // items accepted
	Pops    int64 // items consumed
	Rejects int64 // pushes refused by a full queue
	Parks   int64 // times a consumer found nothing queued and waited
}
