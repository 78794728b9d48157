package core_test

import (
	"os"
	"testing"

	"ctpquery/internal/core"
)

// TestMain runs every search with Parallelism ≥ 1 on the sharded
// runtime, which production searches never reach (DESIGN.md §6), so that
// the tests of parallel schedules keep exercising it. A test of the
// production schedule scopes it off with core.ShardedForTesting(false).
func TestMain(m *testing.M) {
	core.ShardedForTesting(true)
	os.Exit(m.Run())
}
