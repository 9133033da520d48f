// Package stats reproduces the duplicated-json-tag incident: two
// counters marshaling to one name, so encoding/json silently drops one
// and the metrics scrape loses a column.
package stats

// Stats is the incident shape plus the other tag defects.
type Stats struct {
	Enqueued   uint64 `json:"enqueued"`
	Dispatched uint64 `json:"enqueued"` // want `duplicates json tag "enqueued" of field Enqueued`
	Completed  uint64 // want `exported field Stats\.Completed has no json tag`
	MaxBatch   int    `json:"maxBatch"` // want `must be snake_case`
	internal   int    // unexported: exempt
	Skipped    int    `json:"-"` // explicitly unserialized: exempt
}

// NodeStats checks the suffix match and embedded-field handling.
type NodeStats struct {
	Node  int   `json:"node"`
	Queue Stats // want `exported field NodeStats\.Queue has no json tag`
}

// result is not a Stats struct: out of scope.
type result struct {
	Throughput float64
}
