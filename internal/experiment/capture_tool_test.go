package experiment

import (
	"fmt"
	"os"
	"testing"
)

func TestCaptureGoldenTool(t *testing.T) {
	if os.Getenv("CAPTURE_GOLDEN") == "" {
		t.Skip("set CAPTURE_GOLDEN=1 to emit the golden serialization")
	}
	fmt.Print("GOLDEN-BEGIN\n" + serializeResult(RunOnce(fig7aScenario(), 42, Observe{})) + "GOLDEN-END\n")
}
