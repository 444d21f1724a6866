package errfreeze

// Packages maps each frozen package's import path to the checked-in set of
// error format strings it is allowed to construct (the first argument of
// its fmt.Errorf / errors.New calls). Error text in these packages is part
// of the module's contract: hardening tests, CLI snapshot tests, the serve
// HTTP surface and operators' runbooks all match on it, so a refactor that
// rewords a message is an API change, not a cleanup.
//
// To change an error string deliberately: update the call site AND the
// matching list here in the same commit. The errfreeze analyzer fails when
// a live string is missing from its package's list; TestFrozenRoundTrip
// fails when an entry here no longer exists in the live package, so the
// two can never drift apart silently.
var Packages = map[string]map[string]bool{
	"thriftylp/graph":          FrozenGraph,
	"thriftylp/internal/serve": FrozenServe,
	"thriftylp/internal/shard": FrozenShard,
}

// FrozenGraph freezes the untrusted-input boundary: loader and validator
// messages the hardening tests match on.
var FrozenGraph = map[string]bool{
	"element %d of %d: %w":                           true,
	"graph: %d vertices exceeds the id space [0,%d)": true,
	"graph: %s: header claims %d vertices and %d slots (%d payload bytes) but file holds %d": true,
	"graph: %s: reading adjacency: %w":                                     true,
	"graph: %s: reading offsets: %w":                                       true,
	"graph: adjacency slot %d references vertex %d out of range [0,%d)":    true,
	"graph: adjacency without offsets":                                     true,
	"graph: bad magic %#x":                                                 true,
	"graph: duplicate vertex %d in subgraph set":                           true,
	"graph: edge {%d,%d} out of range [0,%d)":                              true,
	"graph: empty offsets array":                                           true,
	"graph: header claims %d vertices, above the uint32 id space":          true,
	"graph: header sizes overflow (%d vertices, %d slots)":                 true,
	"graph: labelling has %d entries for %d vertices":                      true,
	"graph: line %d: %s":                                                   true,
	"graph: mmap unavailable":                                              true,
	"graph: negative slot count %d":                                        true,
	"graph: offsets byte size overflows (%d entries, %d slots)":            true,
	"graph: offsets not monotone at vertex %d":                             true,
	"graph: offsets[%d] = %d, want len(adj) = %d":                          true,
	"graph: offsets[%d] = %d, want slot count %d":                          true,
	"graph: offsets[0] = %d, want 0":                                       true,
	"graph: perm maps two vertices to %d":                                  true,
	"graph: perm[%d] = %d out of range":                                    true,
	"graph: permutation has %d entries for %d vertices":                    true,
	"graph: reading adjacency: %w":                                         true,
	"graph: reading binary header: %w":                                     true,
	"graph: reading offsets: %w":                                           true,
	"graph: reading slice header: %w":                                      true,
	"graph: slice has %d offsets for range [%d,%d)":                        true,
	"graph: slice header range [%d,%d) invalid for %d vertices":            true,
	"graph: slice range [%d,%d) invalid for %d vertices":                   true,
	"graph: subgraph vertex %d out of range [0,%d)":                        true,
	"graph: unsupported version %d":                                        true,
	"graph: use of mmap-backed graph after Close":                          true,
	"graph: vertex %d degree %d exceeds the uint32 range":                  true,
	"graph: vertex %d has out-degree %d but in-degree %d (asymmetric CSR)": true,
	"graph: vertex id %d is reserved (id space is [0,%d))":                 true,
}

// FrozenServe freezes the query server's load-pipeline and reload errors:
// thriftyd relays them over HTTP and the smoke tests match on the phases.
var FrozenServe = map[string]bool{
	"serve: ingest %s: %w":              true,
	"serve: validate %s: %w":            true,
	"serve: solve %s: %w":               true,
	"serve: reload already in progress": true,
}

// FrozenShard freezes the out-of-core manifest, slice-header, exchange
// codec and streaming errors: corrupt-shard tests and operators match on
// them when a shard set goes bad on disk.
var FrozenShard = map[string]bool{
	"shard: manifest schema %q, want %q":                                                   true,
	"shard: manifest has %d vertices across %d shards":                                     true,
	"shard: manifest hub %d out of range [0,%d)":                                           true,
	"shard: shard %d covers [%d,%d), want lo %d":                                           true,
	"shard: shard %d has negative slot count %d":                                           true,
	"shard: shards cover [0,%d), want [0,%d)":                                              true,
	"shard: shard slot counts sum to %d, manifest claims %d":                               true,
	"shard: parsing manifest: %w":                                                          true,
	"shard: %s header {%d [%d,%d) %d slots} disagrees with manifest {%d [%d,%d) %d slots}": true,
	"shard: %s holds %d bytes, manifest range [%d,%d) with %d slots needs %d":              true,
	"shard: corrupt exchange batch header":                                                 true,
	"shard: exchange batch truncated at pair %d of %d":                                     true,
	"shard: exchange pair (%d,%d) outside shard range [%d,%d)":                             true,
	"shard: %d trailing bytes after exchange batch":                                        true,
	"shard: stream has %d vertices":                                                        true,
	"shard: streamed degree count %d does not match %d directed slots (degree overflow?)":  true,
}
