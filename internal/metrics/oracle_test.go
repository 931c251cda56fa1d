package metrics

// Sub returns the bucket-wise difference s - prev, keeping s's MaxNS: the
// inverse of Add the tests check it against.
func (s HistogramBuckets) Sub(prev HistogramBuckets) HistogramBuckets {
	d := HistogramBuckets{Count: s.Count - prev.Count, SumNS: s.SumNS - prev.SumNS, MaxNS: s.MaxNS}
	for i := range s.Counts {
		d.Counts[i] = s.Counts[i] - prev.Counts[i]
	}
	return d
}
