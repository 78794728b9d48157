package graph

// CheckSnapshotRoundTrip lets the external test package, which can use
// the generators, check round trips on generated graphs.
var CheckSnapshotRoundTrip = checkSnapshotRoundTrip

const ConcurrentFreezeEdges = concurrentFreezeEdges
