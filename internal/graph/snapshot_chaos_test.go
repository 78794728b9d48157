package graph

import (
	"bytes"
	"errors"
	"runtime"
	"testing"
)

// TestChaosSnapshotEveryByteCorruption flips every single byte of a
// valid snapshot in turn and asserts each corrupted copy is rejected
// with a structured *SnapshotError — the per-section CRC32 guarantees no
// single-byte corruption can load as a silently wrong graph, and the
// bounds validation plus recover backstop guarantee none can panic.
func TestChaosSnapshotEveryByteCorruption(t *testing.T) {
	g := snapshotFixture(t)
	var buf bytes.Buffer
	if err := WriteSnapshot(&buf, g); err != nil {
		t.Fatal(err)
	}
	valid := buf.Bytes()
	if _, err := ReadSnapshot(bytes.NewReader(valid)); err != nil {
		t.Fatalf("pristine snapshot rejected: %v", err)
	}
	for i := range valid {
		corrupted := append([]byte(nil), valid...)
		corrupted[i] ^= 0xA5
		_, err := ReadSnapshot(bytes.NewReader(corrupted))
		if err == nil {
			t.Fatalf("corruption at byte %d/%d accepted", i, len(valid))
		}
		var se *SnapshotError
		if !errors.As(err, &se) {
			t.Fatalf("corruption at byte %d: unstructured error %v", i, err)
		}
		if se.Section == "" {
			t.Fatalf("corruption at byte %d: error names no section: %v", i, err)
		}
	}
}

// TestChaosSnapshotEveryTruncation cuts the snapshot at every length and
// asserts each prefix errors (structured) instead of panicking or
// half-loading.
func TestChaosSnapshotEveryTruncation(t *testing.T) {
	g := snapshotFixture(t)
	var buf bytes.Buffer
	if err := WriteSnapshot(&buf, g); err != nil {
		t.Fatal(err)
	}
	valid := buf.Bytes()
	for cut := 0; cut < len(valid); cut++ {
		_, err := ReadSnapshot(bytes.NewReader(valid[:cut]))
		if err == nil {
			t.Fatalf("truncation at %d/%d accepted", cut, len(valid))
		}
		var se *SnapshotError
		if !errors.As(err, &se) {
			t.Fatalf("truncation at %d: unstructured error %v", cut, err)
		}
	}
}

// TestChaosSnapshotFlipAllocatesLittle: the counts are checksummed
// before anything is sized by them, so no single-byte corruption of a
// small snapshot makes the reader allocate more than a small file needs.
func TestChaosSnapshotFlipAllocatesLittle(t *testing.T) {
	g := snapshotFixture(t)
	var buf bytes.Buffer
	if err := WriteSnapshot(&buf, g); err != nil {
		t.Fatal(err)
	}
	valid := buf.Bytes()
	var before, after runtime.MemStats
	for i := range valid {
		corrupted := append([]byte(nil), valid...)
		corrupted[i] ^= 0xA5
		runtime.ReadMemStats(&before)
		ReadSnapshot(bytes.NewReader(corrupted))
		runtime.ReadMemStats(&after)
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
			t.Fatalf("corruption at byte %d/%d allocated %d bytes", i, len(valid), grew)
		}
	}
}
