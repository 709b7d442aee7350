package workload

// Builtins returns the six application graphs as the constructors share
// them.
func Builtins() []*Graph {
	return []*Graph{
		AutonomousVehicleParallel(), AutonomousVehicleDependent(),
		ComputerVisionParallel(), ComputerVisionDependent(),
		SevenAcceleratorParallel(), SevenAcceleratorSilicon(),
	}
}

// Fresh builds each of the six application graphs anew, in Builtins'
// order.
func Fresh() []*Graph {
	return []*Graph{
		buildAVParallel(), buildAVDependent(),
		buildCVParallel(), buildCVDependent(),
		buildSilicon7Par(), buildSilicon7(),
	}
}
