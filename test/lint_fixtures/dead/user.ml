let total = Exporter.used + Exporter.Inner.deep_used
