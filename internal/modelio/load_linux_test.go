package modelio

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"unsafe"

	"gillis/internal/graph"
	"gillis/internal/models"
	"gillis/internal/nn"
)

// TestLoadAllocatesTheWeightsOnce: the weights of a loaded model exist once,
// in the file's mapping. A LoadFile of mobilenet-mini (3.16 MB of
// parameters) allocates under 256 KiB — the header, the graph and the
// tensors' headers — and every weight lies inside a private mapping of the
// file that, on a little-endian host, is read-only. A loader that reads the
// weights into the heap allocates their bytes; a writable mapping copies
// every page it populates.
func TestLoadAllocatesTheWeightsOnce(t *testing.T) {
	g, err := models.ByName("mobilenet-mini")
	if err != nil {
		t.Fatal(err)
	}
	g.Init(1)
	path := filepath.Join(t.TempDir(), "mobilenet-mini.glsm")
	if err := SaveFile(path, g, true); err != nil {
		t.Fatal(err)
	}
	var loaded *graph.Graph
	n := allocated(func() { loaded, err = LoadFile(path) })
	if err != nil {
		t.Fatal(err)
	}
	if !loaded.Initialized() {
		t.Fatal("loaded model has no weights")
	}
	t.Logf("%d parameter bytes, %d B allocated", 4*g.ParamCount(), n)
	if maxBytes := uint64(256 << 10); n > maxBytes {
		t.Errorf("load allocated %d B, want under %d B", n, maxBytes)
	}
	maps, err := mappingsOf(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(maps) == 0 {
		t.Fatalf("no mapping of %s in /proc/self/maps", path)
	}
	for _, m := range maps {
		if m.perms != "r--p" && !(bigEndian && m.perms == "rw-p") {
			t.Errorf("%s is mapped %s, want r--p", path, m.perms)
		}
	}
	tensors := 0
	for _, node := range loaded.Nodes() {
		wt, ok := node.Op.(nn.Weighted)
		if !ok {
			continue
		}
		for i, w := range wt.Weights() {
			d := w.Data()
			lo := uintptr(unsafe.Pointer(unsafe.SliceData(d)))
			if !inside(maps, lo, lo+uintptr(4*len(d))) {
				t.Errorf("%s weight %d at %#x is not in a mapping of the file", node.Op.Name(), i, lo)
			}
			tensors++
		}
	}
	if tensors == 0 {
		t.Fatal("no weight tensors")
	}
}

// mapping is one line of /proc/self/maps.
type mapping struct {
	lo, hi uintptr
	perms  string
}

// mappingsOf lists this process's mappings of the file at path.
func mappingsOf(path string) ([]mapping, error) {
	f, err := os.Open("/proc/self/maps")
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var ms []mapping
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 6 || fields[5] != path {
			continue
		}
		var m mapping
		if _, err := fmt.Sscanf(fields[0], "%x-%x", &m.lo, &m.hi); err != nil {
			return nil, err
		}
		m.perms = fields[1]
		ms = append(ms, m)
	}
	return ms, sc.Err()
}

// inside reports whether [lo, hi) lies within one of ms.
func inside(ms []mapping, lo, hi uintptr) bool {
	for _, m := range ms {
		if m.lo <= lo && hi <= m.hi {
			return true
		}
	}
	return false
}
