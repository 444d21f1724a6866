package gen

import "testing"

func TestParseSpec(t *testing.T) {
	for _, tc := range []struct {
		spec string
		want Spec
	}{
		{"rmat", Spec{"rmat", 18, 16}},
		{"rmat:12", Spec{"rmat", 12, 16}},
		{"rmat::8", Spec{"rmat", 18, 8}},
		{"rmat:12:8", Spec{"rmat", 12, 8}},
		{"web:14", Spec{"web", 14, 0}},
		{"er:100", Spec{"er", 100, 800}},
		{"er:100:5", Spec{"er", 100, 5}},
		{"ba", Spec{"ba", 1 << 18, 8}},
		{"star:100", Spec{"star", 100, 0}},
		{"path:", Spec{"path", 1 << 20, 0}},
	} {
		got, err := ParseSpec(tc.spec)
		if err != nil || got != tc.want {
			t.Errorf("ParseSpec(%q) = %+v, %v; want %+v", tc.spec, got, err, tc.want)
		}
	}
	for _, bad := range []string{"", "nope:1", "rmat:abc", "rmat:12x", "rmat:-1", "rmat:12:8:1", "web:14:2", "er: 5"} {
		if sp, err := ParseSpec(bad); err == nil {
			t.Errorf("ParseSpec(%q) = %+v, want an error", bad, sp)
		}
	}
}

// TestSpecBuild checks that a parsed spec builds the graph its family's
// generator builds from the same arguments.
func TestSpecBuild(t *testing.T) {
	sp, err := ParseSpec("rmat:8:4")
	if err != nil {
		t.Fatal(err)
	}
	got, err := sp.Build(7)
	if err != nil {
		t.Fatal(err)
	}
	want, err := RMATCompact(DefaultRMAT(8, 4, 7))
	if err != nil {
		t.Fatal(err)
	}
	if got.NumVertices() != want.NumVertices() || got.NumDirectedEdges() != want.NumDirectedEdges() {
		t.Fatalf("rmat:8:4 built %d vertices, %d slots; want %d, %d",
			got.NumVertices(), got.NumDirectedEdges(), want.NumVertices(), want.NumDirectedEdges())
	}
	if _, err := (Spec{Family: "nope"}).Build(7); err == nil {
		t.Fatal("unknown family built a graph")
	}
}
