package priority

// Estimator predicts the actual execution requirement X_k of a node instance
// before it runs. The paper notes that the quality of the pUBS schedule
// depends directly on the quality of this estimate and suggests keeping a
// history of previous instances — which is what HistoryEstimator does.
type Estimator interface {
	// Estimate returns the predicted actual cycles for the node identified by
	// (graphIndex, nodeID) whose worst case is wcet cycles. The result is in
	// (0, wcet].
	Estimate(graphIndex, nodeID int, wcet float64) float64
	// Observe records the actual cycles consumed by a completed instance.
	Observe(graphIndex, nodeID int, wcet, actual float64)
}

// DefaultInitialFraction is the fraction of the WCET assumed for a node that
// has never been observed. The paper draws actual requirements uniformly in
// [20 %, 100 %] of the WCET, whose mean is 60 %.
const DefaultInitialFraction = 0.6

// HistoryEstimator keeps an exponentially weighted moving average of the
// actual/WCET ratio of each node across instances.
//
// Ownership contract: a HistoryEstimator is not safe for concurrent use. It
// belongs to one simulation at a time: the engine builds one per Engine, and
// a caller that passes its own through Config.Estimator must not share it
// across goroutines. Estimate and Observe sit on the scheduler's per-decision
// path, so they take no lock.
//
// The history is a dense table indexed by (graphIndex, nodeID), as the engine
// passes them: positions in the system and in the graph. The table grows to
// the largest index observed, so memory follows the largest index rather than
// the number of observed nodes. A negative index has no entry: Observe
// ignores it and Estimate answers as for a node never observed.
type HistoryEstimator struct {
	// Alpha is the EWMA smoothing factor in (0, 1]; larger values weigh the
	// most recent instance more heavily.
	Alpha float64
	// InitialFraction is the assumed actual/WCET ratio before any
	// observation.
	InitialFraction float64

	rows [][]histEntry // rows[graphIndex][nodeID]
	n    int           // entries with recorded history
}

// histEntry is one node's recorded actual/WCET ratio.
type histEntry struct {
	frac float64
	seen bool
}

// Minimum table sizes on first growth, so that the paper's workloads (five
// graphs of at most 15 nodes) take one allocation for the rows and one per
// graph, fewer than a map of the same entries takes.
const (
	minHistRows   = 8
	minHistRowLen = 16
)

// NewHistoryEstimator returns a history estimator with the given smoothing
// factor (clamped to (0,1]; 0 selects 0.5) and the default initial fraction.
func NewHistoryEstimator(alpha float64) *HistoryEstimator {
	if alpha <= 0 || alpha > 1 {
		alpha = 0.5
	}
	return &HistoryEstimator{Alpha: alpha, InitialFraction: DefaultInitialFraction}
}

// lookup returns the entry of (graphIndex, nodeID); the zero entry when the
// table does not hold it.
func (h *HistoryEstimator) lookup(graphIndex, nodeID int) histEntry {
	if uint(graphIndex) >= uint(len(h.rows)) {
		return histEntry{}
	}
	row := h.rows[graphIndex]
	if uint(nodeID) >= uint(len(row)) {
		return histEntry{}
	}
	return row[nodeID]
}

// slot returns the entry of (graphIndex, nodeID) for non-negative indices,
// growing the table to hold it.
func (h *HistoryEstimator) slot(graphIndex, nodeID int) *histEntry {
	if graphIndex >= len(h.rows) {
		h.rows = append(h.rows, make([][]histEntry, max(graphIndex+1, minHistRows)-len(h.rows))...)
	}
	row := h.rows[graphIndex]
	if nodeID >= len(row) {
		row = append(row, make([]histEntry, max(nodeID+1, minHistRowLen)-len(row))...)
		h.rows[graphIndex] = row
	}
	return &row[nodeID]
}

// Estimate implements Estimator.
func (h *HistoryEstimator) Estimate(graphIndex, nodeID int, wcet float64) float64 {
	if wcet <= 0 {
		return 0
	}
	e := h.lookup(graphIndex, nodeID)
	frac := e.frac
	if !e.seen {
		frac = h.InitialFraction
		if frac <= 0 || frac > 1 {
			frac = DefaultInitialFraction
		}
	}
	est := frac * wcet
	if est <= 0 {
		est = 1e-9 * wcet
	}
	if est > wcet {
		est = wcet
	}
	return est
}

// Observe implements Estimator.
func (h *HistoryEstimator) Observe(graphIndex, nodeID int, wcet, actual float64) {
	if wcet <= 0 || actual <= 0 || graphIndex < 0 || nodeID < 0 {
		return
	}
	frac := actual / wcet
	if frac > 1 {
		frac = 1
	}
	e := h.slot(graphIndex, nodeID)
	if e.seen {
		e.frac = (1-h.Alpha)*e.frac + h.Alpha*frac
	} else {
		e.frac, e.seen = frac, true
		h.n++
	}
}

// Reset forgets all recorded history while keeping the table's storage, so a
// reused estimator starts the next simulation from InitialFraction without
// reallocating.
func (h *HistoryEstimator) Reset() {
	for _, row := range h.rows {
		clear(row)
	}
	h.n = 0
}

// Len returns the number of nodes with recorded history.
func (h *HistoryEstimator) Len() int { return h.n }

// OracleEstimator returns a fixed fraction of the WCET and ignores
// observations. With Fraction = 1 it reproduces worst-case-pessimistic
// estimates; experiments that want a perfect oracle can instead bypass the
// estimator and pass the true actual cycles directly.
type OracleEstimator struct {
	// Fraction is the assumed actual/WCET ratio in (0, 1].
	Fraction float64
}

// Estimate implements Estimator.
func (o OracleEstimator) Estimate(graphIndex, nodeID int, wcet float64) float64 {
	f := o.Fraction
	if f <= 0 || f > 1 {
		f = 1
	}
	return f * wcet
}

// Observe implements Estimator. It is a no-op.
func (o OracleEstimator) Observe(graphIndex, nodeID int, wcet, actual float64) {}

// compile-time interface checks
var (
	_ Estimator = (*HistoryEstimator)(nil)
	_ Estimator = OracleEstimator{}
)
