package scenario

import "repro/internal/vehicle"

// Extra operational-design-domain variants beyond the paper's nine
// validation scenarios. The paper motivates Zhuyi partly as an ODD
// exploration tool ("help architects to discover new optimization
// opportunities for different ODDs", §1); these variants exercise the
// model on geometries the nine do not cover: platoons, heavy vehicles,
// crossing agents, and dense traffic.
const (
	HighwayPlatoon = "highway-platoon"
	TruckCutOut    = "truck-cut-out"
	UrbanCrosser   = "urban-crosser"
	DenseTraffic   = "dense-traffic"
)

// VariantSpecs returns the ODD variant scenarios as declarative specs.
func VariantSpecs() []Spec {
	truckLen := vehicle.Truck().Length
	return []Spec{
		// Three platoon vehicles ahead at ~30 m spacing; the leader
		// brakes hard at t≈6 and the followers react with small delays,
		// producing the braking wave the ego must absorb last.
		{
			Name:        HighwayPlatoon,
			Description: "Ego trails a three-vehicle platoon at 65 mph; the platoon leader hard-brakes and the braking wave propagates",
			Tags:        []string{TagVariant},
			EgoSpeedMPH: 65,
			Front:       true,
			Road:        RoadDef{Lanes: 3, Length: 8000},
			EgoLane:     1,
			Duration:    25,
			Actors: []ActorDef{
				{
					ID: "p1", Lane: 1, S: C(35), Speed: C(1),
					Stages: []StageDef{{
						When: TriggerDef{Kind: TrigAtTime, Arg: J(7.5, 0.15)},
						Do:   ActionDef{Kind: ActBrakeTo, Target: C(0.26), Rate: J(7.0, 0.08)},
					}},
				},
				{
					ID: "p2", Lane: 1, S: C(68), Speed: C(1),
					Stages: []StageDef{{
						When: TriggerDef{Kind: TrigAtTime, Arg: J(6.8, 0.15)},
						Do:   ActionDef{Kind: ActBrakeTo, Target: C(0.28), Rate: J(6.5, 0.08)},
					}},
				},
				{
					ID: "p3", Lane: 1, S: C(101), Speed: C(1),
					Stages: []StageDef{{
						When: TriggerDef{Kind: TrigAtTime, Arg: J(6, 0.15)},
						Do:   ActionDef{Kind: ActBrakeTo, Target: C(0.3), Rate: J(6.0, 0.08)},
					}},
				},
			},
		},
		// Cut-out with a box truck as the occluder: a longer occlusion
		// shadow and a later reveal.
		{
			Name:        TruckCutOut,
			Description: "Cut-out with a box truck as the occluder: a longer occlusion shadow and a later reveal",
			Tags:        []string{TagVariant},
			EgoSpeedMPH: 35,
			Front:       true, Right: true, Left: true,
			Road:     RoadDef{Lanes: 3, Length: 5000},
			EgoLane:  1,
			Duration: 25,
			Actors: []ActorDef{
				{
					ID: "truck", Kind: KindTruck, Lane: 1, S: C(24 + truckLen/2), Speed: C(1),
					Stages: []StageDef{{
						When: TriggerDef{Kind: TrigAtStation, Arg: JPlus(90, -20, 0.08)},
						Do:   ActionDef{Kind: ActLaneChange, TargetLane: 2, Duration: J(2.4, 0.1)},
					}},
				},
				{ID: "obstacle", Kind: KindObstacle, Lane: 1, S: C(90)},
				{
					ID: "right-blocker", Lane: 0, S: J(3, 0.5), Speed: C(1),
					Stages: []StageDef{{
						When: TriggerDef{Kind: TrigImmediately},
						Do:   ActionDef{Kind: ActMatchBeside, Offset: J(3, 0.5), MaxAccel: 2.5, MaxBrake: 6},
					}},
				},
			},
		},
		// The crosser starts on the right shoulder ahead of the ego and
		// traverses the road laterally at walking-fast pace while
		// drifting slowly forward.
		{
			Name:        UrbanCrosser,
			Description: "A crossing agent traverses the road laterally ahead of the ego at urban speed",
			Tags:        []string{TagVariant},
			EgoSpeedMPH: 25,
			Front:       true, Right: true,
			Road:     RoadDef{Lanes: 3, Length: 3000},
			EgoLane:  1,
			Duration: 20,
			Actors: []ActorDef{
				{
					ID:     "crosser",
					Kind:   KindCustom,
					Custom: vehicle.Params{Length: 0.8, Width: 0.8, MaxAccel: 1, MaxBrake: 2, MaxSpeed: 3},
					Lane:   0, DOffset: -3.0,
					S: J(55, 0.1), Speed: C(0.5), SpeedAbsolute: true,
					Stages: []StageDef{{
						When: TriggerDef{Kind: TrigEgoWithin, Arg: J(50, 0.1)},
						Do:   ActionDef{Kind: ActDrift, LatVel: J(1.8, 0.1), Duration: C(7)},
					}},
				},
				{ID: "parked", Lane: 0, DOffset: -2.6, S: C(40)},
			},
		},
		// Six surrounding actors; the lead brakes moderately.
		{
			Name:        DenseTraffic,
			Description: "Six surrounding actors at 45 mph; the lead brakes moderately",
			Tags:        []string{TagVariant},
			EgoSpeedMPH: 45,
			Front:       true, Right: true, Left: true,
			Road:     RoadDef{Lanes: 3, Length: 6000},
			EgoLane:  1,
			Duration: 25,
			Actors: []ActorDef{
				{
					ID: "lead", Lane: 1, S: C(32), Speed: C(1),
					Stages: []StageDef{{
						When: TriggerDef{Kind: TrigAtTime, Arg: J(5, 0.2)},
						Do:   ActionDef{Kind: ActBrakeTo, Target: C(0.6), Rate: J(3.5, 0.1)},
					}},
				},
				{ID: "left-front", Lane: 2, S: J(18, 0.2), Speed: C(1)},
				{ID: "left-rear", Lane: 2, S: J(-15, 0.2), Speed: C(1.02)},
				{ID: "right-front", Lane: 0, S: J(22, 0.2), Speed: C(0.97)},
				{
					ID: "right-rear", Lane: 0, S: J(-20, 0.2), Speed: C(1),
					Stages: []StageDef{{
						When: TriggerDef{Kind: TrigImmediately},
						Do:   ActionDef{Kind: ActFollowEgo, Offset: J(22, 0.1), MaxAccel: 2.5, MaxBrake: 6},
					}},
				},
				{ID: "far-lead", Kind: KindTruck, Lane: 1, S: C(95), Speed: C(0.95)},
			},
		},
	}
}
