let total = Exporter.used + Exporter.Inner.deep_used + Exporter.stale
let probe = Lintfx_dead_lib.Api.run + Lintfx_dead_lib.Api.test_view
