// Package specs embeds the example scenario specs, so code can run a
// shipped example without a path to the checkout.
package specs

import _ "embed"

// FusionOverload is fusion-overload.json: a 30 s carfollow run under
// HCPerf with a sensor-fusion load window.
//
//go:embed fusion-overload.json
var FusionOverload []byte
