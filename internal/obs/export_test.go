package obs

// Quantile exposes the snapshot's quantile estimator to the external
// tests at any q in [0, 1].
func (h *Histogram) Quantile(q float64) float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.quantileLocked(q)
}
