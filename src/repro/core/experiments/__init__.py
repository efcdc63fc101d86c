"""One module per table/figure of the paper's evaluation (§4).

Every module exposes ``run(config, engine=None) -> ExperimentTable``
producing the same rows/series the paper reports;
:data:`repro.core.paper.TABLES` lists the committed tables.  The package
imports none of its modules, so importing one figure loads only that one.
"""
