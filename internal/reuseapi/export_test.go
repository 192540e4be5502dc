package reuseapi

// Test helpers exported to the external reuseapi_test package, which can
// build testkit worlds (testkit imports reuseapi, so this package's own
// tests cannot).
var (
	RequireDiffMatchesOracle = requireDiffMatchesOracle
	SyntheticDataset         = syntheticDataset
	ScatteredDelta           = scatteredDelta
	ClusteredDelta           = clusteredDelta
)
