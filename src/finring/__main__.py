from .dsl_cli import main
raise SystemExit(main())
