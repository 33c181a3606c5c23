// The benchmark is its own module so that it builds from the files under
// bench/ plus the engine packages it measures, and so that the root
// module's `go build ./...` never depends on it.
module repro/bench

go 1.22

require repro v0.0.0

replace repro => ../
