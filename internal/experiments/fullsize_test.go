package experiments

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// fullSizeRuns are the paper-default, full-size runs whose report artifacts
// the fullsize.sha256 pin covers. The quick goldens only exercise a few sets
// over two hyperperiods; these exercise the full-size path the paper's tables
// (and the engine's performance claims) rest on.
var fullSizeRuns = []struct {
	name       string
	experiment string
	spec       Spec
}{
	{"table2", "table2", Spec{}},
	{"table2-kibam-oracle", "table2", Spec{Battery: "kibam", Oracle: true}},
	{"figure6", "figure6", Spec{}},
	{"grid", "grid", Spec{}},
	{"ablation", "ablation", Spec{}},
	{"curve", "curve", Spec{}},
}

// TestFullSizeArtifactHashes recomputes the SHA-256 of the WriteArtifact
// output of every full-size run and compares it with
// testdata/fullsize.sha256 (rewritten under -update).
func TestFullSizeArtifactHashes(t *testing.T) {
	path := filepath.Join("testdata", "fullsize.sha256")
	got := make(map[string]string, len(fullSizeRuns))
	var out strings.Builder
	for _, r := range fullSizeRuns {
		rep, err := Run(context.Background(), r.experiment, r.spec)
		if err != nil {
			t.Fatalf("%s: %v", r.name, err)
		}
		var b bytes.Buffer
		if err := WriteArtifact(&b, []*Report{rep}); err != nil {
			t.Fatalf("%s: %v", r.name, err)
		}
		sum := sha256.Sum256(b.Bytes())
		got[r.name] = hex.EncodeToString(sum[:])
		fmt.Fprintf(&out, "%s  %s\n", got[r.name], r.name)
	}
	if *updateGolden {
		if err := os.WriteFile(path, []byte(out.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want := readHashes(t, path)
	for _, r := range fullSizeRuns {
		if want[r.name] == "" {
			t.Errorf("%s: no pinned hash in %s", r.name, path)
		} else if got[r.name] != want[r.name] {
			t.Errorf("%s: artifact SHA-256 %s, pinned %s", r.name, got[r.name], want[r.name])
		}
	}
}

// readHashes parses a sha256sum-style file ("<hex>  <name>" per line).
func readHashes(t *testing.T, path string) map[string]string {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatalf("missing hash pin (run go test -run FullSize -update): %v", err)
	}
	defer f.Close()
	m := make(map[string]string)
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if fields := strings.Fields(sc.Text()); len(fields) == 2 {
			m[fields[1]] = fields[0]
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return m
}
