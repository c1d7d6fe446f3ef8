package fleet

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"repro/internal/storage"
)

func TestRegistryPublishPromoteRollback(t *testing.T) {
	reg := newTestRegistry(t)
	e1, err := reg.Publish("mnist", []byte("class:0"), map[string]string{"acc": "0.97"})
	if err != nil {
		t.Fatal(err)
	}
	if e1.Version != 1 || e1.Ref() != "mnist@v1" {
		t.Fatalf("first publish: %+v", e1)
	}
	// First version auto-promotes.
	if s, err := reg.Stable("mnist"); err != nil || s.Version != 1 {
		t.Fatalf("stable after first publish: %+v, %v", s, err)
	}
	e2, err := reg.Publish("mnist", []byte("class:1"), nil)
	if err != nil {
		t.Fatal(err)
	}
	// Second version does not auto-promote.
	if s, _ := reg.Stable("mnist"); s.Version != 1 {
		t.Fatalf("stable moved without promote: %+v", s)
	}
	if err := reg.Promote("mnist", e2.Version); err != nil {
		t.Fatal(err)
	}
	if s, _ := reg.Stable("mnist"); s.Version != 2 {
		t.Fatalf("stable after promote: %+v", s)
	}
	// Promoting the earlier version again moves stable back.
	if err := reg.Promote("mnist", e1.Version); err != nil {
		t.Fatal(err)
	}
	if s, _ := reg.Stable("mnist"); s.Version != 1 {
		t.Fatalf("stable after re-promote: %+v", s)
	}
	// Metadata round-trips.
	if g, _ := reg.Get("mnist", 1); g.Meta["acc"] != "0.97" {
		t.Fatalf("meta lost: %+v", g)
	}
	// Blob round-trips.
	if b, err := reg.Blob(e2); err != nil || string(b) != "class:1" {
		t.Fatalf("blob: %q, %v", b, err)
	}
}

func TestRegistryValidation(t *testing.T) {
	reg := newTestRegistry(t)
	if _, err := reg.Publish("", []byte("x"), nil); err == nil {
		t.Fatal("empty model name accepted")
	}
	if _, err := reg.Publish("a@b", []byte("x"), nil); err == nil {
		t.Fatal("model name with @ accepted")
	}
	if _, err := reg.Stable("ghost"); err == nil {
		t.Fatal("stable of unknown model succeeded")
	}
	if err := reg.Promote("ghost", 1); err == nil {
		t.Fatal("promote of unknown model succeeded")
	}
}

// TestRegistryPersistence proves deployment state survives a process
// restart: a second Registry over the same store dir recovers stable
// pointers, versions and metadata.
func TestRegistryPersistence(t *testing.T) {
	dir := t.TempDir()
	store, err := storage.NewModelStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	reg, err := NewRegistry(store)
	if err != nil {
		t.Fatal(err)
	}
	for _, blob := range []string{"class:0", "class:1", "class:2"} {
		if _, err := reg.Publish("m", []byte(blob), map[string]string{"blob": blob}); err != nil {
			t.Fatal(err)
		}
	}
	if err := reg.Promote("m", 3); err != nil {
		t.Fatal(err)
	}

	// "Restart": fresh store handle, fresh registry.
	store2, err := storage.NewModelStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	reg2, err := NewRegistry(store2)
	if err != nil {
		t.Fatal(err)
	}
	if s, err := reg2.Stable("m"); err != nil || s.Version != 3 {
		t.Fatalf("recovered stable: %+v, %v", s, err)
	}
	if e, _ := reg2.Get("m", 2); e.Meta["blob"] != "class:1" {
		t.Fatalf("metadata not recovered: %+v", e)
	}
	if vs := reg2.Versions("m"); len(vs) != 3 {
		t.Fatalf("recovered %d versions, want 3", len(vs))
	}
}

// TestRegistryRejectsBadManifest: the manifest is untrusted bytes on
// disk. One that names a missing version as stable would make Stable
// dereference nil, and one whose checkpoint names escape model@vNNNNNN
// would let Blob read any *.ckpt the store path reaches; NewRegistry must
// refuse them all.
func TestRegistryRejectsBadManifest(t *testing.T) {
	const ok = `{"stable":2,"versions":[` +
		`{"model":"m","version":1,"checkpoint":"m@v000001"},` +
		`{"model":"m","version":2,"checkpoint":"m@v000002"}]}`
	cases := []struct{ name, model, manifest string }{
		{"stable not listed", "m", `{"stable":3,"versions":[{"model":"m","version":1,"checkpoint":"m@v000001"}]}`},
		{"stable without versions", "m", `{"stable":1}`},
		{"version zero", "m", `{"versions":[{"model":"m","version":0,"checkpoint":"m@v000000"}]}`},
		{"negative version", "m", `{"versions":[{"model":"m","version":-1,"checkpoint":"m@v-00001"}]}`},
		{"duplicate version", "m", `{"stable":1,"versions":[` +
			`{"model":"m","version":1,"checkpoint":"m@v000001"},{"model":"m","version":1,"checkpoint":"m@v000001"}]}`},
		{"descending versions", "m", `{"stable":1,"versions":[` +
			`{"model":"m","version":2,"checkpoint":"m@v000002"},{"model":"m","version":1,"checkpoint":"m@v000001"}]}`},
		{"foreign model", "m", `{"stable":1,"versions":[{"model":"other","version":1,"checkpoint":"m@v000001"}]}`},
		{"path escape", "m", `{"stable":2,"versions":[` +
			`{"model":"m","version":1,"checkpoint":"../victim"},{"model":"m","version":2,"checkpoint":"m@v000002"}]}`},
		{"other model's checkpoint", "m", `{"stable":2,"versions":[` +
			`{"model":"m","version":1,"checkpoint":"other@v000001"},{"model":"m","version":2,"checkpoint":"m@v000002"}]}`},
		{"checkpoint of another version", "m", `{"stable":1,"versions":[{"model":"m","version":1,"checkpoint":"m@v000002"}]}`},
		{"empty model name", "", ok},
		{"not JSON", "m", ok[:len(ok)/2]},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			store, err := storage.NewModelStore(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			if err := store.SaveBlob(c.model+manifestSuffix, []byte(c.manifest)); err != nil {
				t.Fatal(err)
			}
			if _, err := NewRegistry(store); err == nil {
				t.Fatalf("NewRegistry accepted %s", c.manifest)
			}
		})
	}
	store, err := storage.NewModelStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := store.SaveBlob("m"+manifestSuffix, []byte(ok)); err != nil {
		t.Fatal(err)
	}
	reg, err := NewRegistry(store)
	if err != nil {
		t.Fatalf("valid manifest rejected: %v", err)
	}
	if e, err := reg.Stable("m"); err != nil || e.Version != 2 {
		t.Fatalf("stable on the valid manifest: %+v, %v", e, err)
	}
}

// registrySeedManifests returns the manifest model "m" has after each step
// of a Publish/Promote history, as the registry wrote it.
func registrySeedManifests(f *testing.F) [][]byte {
	store, err := storage.NewModelStore(f.TempDir())
	if err != nil {
		f.Fatal(err)
	}
	reg, err := NewRegistry(store)
	if err != nil {
		f.Fatal(err)
	}
	var out [][]byte
	step := func(err error) {
		if err != nil {
			f.Fatal(err)
		}
		blob, err := store.Blob("m" + manifestSuffix)
		if err != nil {
			f.Fatal(err)
		}
		out = append(out, blob)
	}
	for i := 0; i < 4; i++ {
		_, err := reg.Publish("m", []byte("class:0"), map[string]string{"run": "seed"})
		step(err)
	}
	step(reg.Promote("m", 3))
	step(reg.Promote("m", 4))
	step(reg.Promote("m", 2))
	_, err = reg.Publish("m", []byte("class:1"), nil)
	step(err)
	step(reg.Promote("m", 5))
	return out
}

// FuzzRegistryManifest loads arbitrary bytes as model "m"'s manifest.
// Seeds are the manifests the registry itself writes, their truncations
// and single-field edits. NewRegistry never panics; after a successful
// load every method runs without panic, every entry names its canonical
// checkpoint, and no file in or outside the store goes missing.
func FuzzRegistryManifest(f *testing.F) {
	edits := [][2]string{
		{`"stable": 3`, `"stable": 9`},
		{`"m@v000001"`, `"../victim"`},
		{`"m@v000002"`, `"other@v000001"`},
		{`"version": 2`, `"version": 1`},
		{`"model": "m"`, `"model": "x"`},
		{`"run": "seed"`, `"run": 7`},
	}
	for _, blob := range registrySeedManifests(f) {
		f.Add(blob)
		f.Add(blob[:len(blob)/2])
		for _, e := range edits {
			if edited := strings.Replace(string(blob), e[0], e[1], 1); edited != string(blob) {
				f.Add([]byte(edited))
			}
		}
	}
	canonical := regexp.MustCompile(`^m@v[0-9]{6,}\.ckpt$`)
	f.Fuzz(func(t *testing.T, blob []byte) {
		dir := t.TempDir()
		storeDir := filepath.Join(dir, "store")
		store, err := storage.NewModelStore(storeDir)
		if err != nil {
			t.Fatal(err)
		}
		victim := filepath.Join(dir, "victim.ckpt")
		if err := os.WriteFile(victim, []byte("x"), 0o644); err != nil {
			t.Fatal(err)
		}
		for name, b := range map[string][]byte{"other@v000001": []byte("x"), "m" + manifestSuffix: blob} {
			if err := store.SaveBlob(name, b); err != nil {
				t.Fatal(err)
			}
		}
		reg, err := NewRegistry(store)
		if err != nil {
			return
		}
		vs := reg.Versions("m")
		for _, e := range vs {
			if !canonical.MatchString(e.Checkpoint + ".ckpt") {
				t.Fatalf("loaded entry v%d names checkpoint %q", e.Version, e.Checkpoint)
			}
			if err := store.SaveBlob(e.Checkpoint, []byte("x")); err != nil {
				t.Fatal(err)
			}
		}
		reg.Stable("m")
		for _, e := range vs {
			reg.Get("m", e.Version)
			reg.Blob(e)
		}
		before := storeFiles(t, storeDir)
		if len(vs) > 0 {
			reg.Promote("m", vs[len(vs)-1].Version)
		}
		after := storeFiles(t, storeDir)
		for name := range before {
			if !after[name] {
				t.Fatalf("%s went missing", name)
			}
		}
		if _, err := os.Stat(victim); err != nil {
			t.Fatalf("file outside the store: %v", err)
		}
		reg.Publish("m", []byte("y"), nil)
		reg.Stable("m")
	})
}

func storeFiles(t *testing.T, dir string) map[string]bool {
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	for _, e := range entries {
		names[e.Name()] = true
	}
	return names
}
