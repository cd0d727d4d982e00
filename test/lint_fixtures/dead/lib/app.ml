let result = Api.run
