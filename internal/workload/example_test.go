package workload_test

import (
	"fmt"

	"gupster/internal/workload"
)

// The paper's Figure 5 — the table of where a converged-network user's
// profile data lives — as the coverage the testbed's stores register at
// the MDM.
func ExampleNewTestbed_figure5() {
	tb, err := workload.NewTestbed(workload.TestbedOptions{Users: 1, Seed: 1})
	if err != nil {
		fmt.Println(err)
		return
	}
	defer tb.Close()
	network := map[string]string{
		workload.StoreHLR:        "Wireless",
		workload.StorePSTN:       "PSTN",
		workload.StoreSIP:        "VoIP",
		workload.StorePortal:     "Web (portal)",
		workload.StoreEnterprise: "Web (enterprise)",
	}
	for _, reg := range tb.MDM.Registry.Snapshot() {
		fmt.Printf("%-16s  %-23s  %s\n", network[string(reg.Store)], reg.Store, reg.Path)
	}
	// Output:
	// Web (enterprise)  gup.enterprise.example   /user/address-book/item[@type='corporate']
	// Web (enterprise)  gup.enterprise.example   /user/preferences
	// Web (enterprise)  gup.enterprise.example   /user/self
	// Wireless          gup.hlr.carrier.example  /user/devices/device[@network='wireless']
	// Wireless          gup.hlr.carrier.example  /user/location
	// Web (portal)      gup.portal.example       /user/address-book/item[@type='personal']
	// Web (portal)      gup.portal.example       /user/buddy-list
	// Web (portal)      gup.portal.example       /user/calendar
	// Web (portal)      gup.portal.example       /user/devices/device[@network='im']
	// Web (portal)      gup.portal.example       /user/presence
	// VoIP              gup.sip.voip.example     /user/devices/device[@network='voip']
	// PSTN              gup.switch.pstn.example  /user/devices/device[@network='pstn']
	// PSTN              gup.switch.pstn.example  /user/services
}
