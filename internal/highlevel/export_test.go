package highlevel

// RefFinish and Recorder expose the map-based oracle and the recording
// reporter to the external tests.
var RefFinish = refFinish

type Recorder = recorder
