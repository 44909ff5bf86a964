package telemetry

// UpdateGolden shares the package's -update flag with the external
// (telemetry_test) golden tests, which live outside the package so they
// can drive internal/experiments.
var UpdateGolden = updateGolden
