package wal

// OpenFrames opens a log below the batch codec, for the record-layer
// tests: the intact records' payloads, whatever they hold.
var OpenFrames = openFrames
