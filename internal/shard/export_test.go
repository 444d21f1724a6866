package shard

// CheckRep exposes checkRep to the external test package, which can import
// internal/harness (harness imports this package through dist).
var CheckRep = checkRep
